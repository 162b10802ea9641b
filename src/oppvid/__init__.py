"""Opportunistic-relay distribution of layered video, with a deterministic simulator."""

from .adaptation import AdaptationConfig, LayerSizeModel, plan_layers
from .destination import DestinationState, decodable_quality, generate_ack, ingest
from .model import Ack, Payload, PayloadId, RelayMetadata, SegmentRecord, parse_payload_id, render_payload_id
from .protocol import (
    ConnectionEngine,
    build_send_queue,
    compute_request_list,
    merge_ack,
    should_connect,
    split_copy_count,
)
from .sim import (
    AdaptiveSvc,
    FixedNonSvc,
    RunMetrics,
    Scenario,
    Simulator,
    run,
    verify_global_invariants,
)
from .store import InsertResult, NodeStore, StoredEntry
from .trace import ContactEvent, generate_synthetic_trace, parse_trace, remove_top_nodes
from .wire import AckMsg, CompleteMsg, InventoryMsg, PayloadMsg, RequestMsg, decode, encode

__version__ = "0.1.0"
