"""Testing substrate: the differential query fuzzer and, in
:mod:`repro.testing.workloads`, the fixed per-dataset query lists."""

from repro.testing.fuzz import (ENGINES, LANES, FuzzQuery, FuzzReport,
                                QueryGenerator, execute_all_engines,
                                generate_queries, run_fuzz)

__all__ = [
    "ENGINES",
    "LANES",
    "FuzzQuery",
    "FuzzReport",
    "QueryGenerator",
    "execute_all_engines",
    "generate_queries",
    "run_fuzz",
]
