"""Packet-level discrete-event network simulator.

This package is the reproduction's stand-in for the paper's BESS software
switch and wired testbed: a dumbbell topology where per-service servers
send packets through a shared, rate-limited bottleneck link with a
drop-tail FIFO queue, with per-service delay insertion to normalise RTTs.
"""

from .engine import CalendarEngine, Timer, build_engine
from .packet import Packet
from .queue import DropTailQueue
from .link import BottleneckLink
from .topology import Dumbbell, Path
from .trace import PacketTrace

__all__ = [
    "CalendarEngine",
    "Timer",
    "build_engine",
    "Packet",
    "DropTailQueue",
    "BottleneckLink",
    "Dumbbell",
    "Path",
    "PacketTrace",
]
