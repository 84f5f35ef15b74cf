"""The Hummingbird benchmark: workloads, closed-loop runner and tracer."""
