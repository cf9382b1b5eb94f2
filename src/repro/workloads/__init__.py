"""Experimental workloads: the paper's five queries and run-time
binding generators (paper Section 6)."""

from repro.workloads.bindings import (
    binding_series,
    random_bindings,
    skewed_bindings,
)
from repro.workloads.queries import (
    PAPER_QUERY_SIZES,
    Workload,
    make_join_workload,
    paper_workload,
)
from repro.workloads.traffic import (
    TrafficRequest,
    TrafficShape,
    TrafficSpec,
    build_traffic_queries,
    generate_traffic,
    request_stream_json,
    to_service_requests,
    zipf_weights,
)

__all__ = [
    "PAPER_QUERY_SIZES",
    "TrafficRequest",
    "TrafficShape",
    "TrafficSpec",
    "Workload",
    "binding_series",
    "build_traffic_queries",
    "generate_traffic",
    "make_join_workload",
    "paper_workload",
    "random_bindings",
    "request_stream_json",
    "skewed_bindings",
    "to_service_requests",
    "zipf_weights",
]
