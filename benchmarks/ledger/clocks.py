"""Which clock each end-to-end metric reads.

``nominal`` reads the virtual clock, in the paper's units; ``host`` is wall
time, CPU time or memory of the simulator itself.  ``BENCHMARK.json`` has
no field for this, so it lives here.
"""

CLOCKS = {
    "ckpt_gibs": "nominal",
    "restore_gibs": "nominal",
    "restore_p90_ms": "nominal",
    "makespan_s": "nominal",
    "durable_gibs": "nominal",
    "durable_latency_p50_ms": "nominal",
    "host_ops_per_s": "host",
    "peak_rss_mib": "host",
    "setup_s": "host",
}
NOMINAL_METRICS = tuple(name for name, clock in CLOCKS.items() if clock == "nominal")
HOST_METRICS = tuple(name for name, clock in CLOCKS.items() if clock == "host")
