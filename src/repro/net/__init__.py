"""Network substrate: message types and constant-latency transport."""

from repro.net.dispatch import DispatchRegistry, UnknownMessageError
from repro.net.message import (
    Advertisement,
    AdvertMessage,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
    ReplicaPayload,
)
from repro.net.transport import Transport

__all__ = [
    "Advertisement",
    "AdvertMessage",
    "DataReply",
    "DataRequest",
    "DispatchRegistry",
    "ProbeMessage",
    "ProbeReplyMessage",
    "QueryMessage",
    "ReplicaPayload",
    "ResponseMessage",
    "TransferAckMessage",
    "TransferMessage",
    "Transport",
    "UnknownMessageError",
]
