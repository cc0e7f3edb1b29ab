"""Reliable transport: the TCP/QUIC stand-in used by all services.

``Connection`` provides an ACK-clocked, optionally paced, SACK-style
reliable byte stream whose congestion behaviour is delegated to a pluggable
:class:`repro.cca.base.CongestionControl`.
"""

from .windowed_filter import WindowedMaxFilter
from .rtt import RttEstimator
from .rate_sampler import RateSample
from .connection import Connection

__all__ = [
    "WindowedMaxFilter",
    "RttEstimator",
    "RateSample",
    "Connection",
]
