"""Cluster network model: nodes, links, and RPC.

Nodes own a CPU :class:`~repro.sim.resources.Resource` and a NIC
:class:`~repro.sim.resources.BandwidthPipe`. Messages pay one-way latency
plus serialization time through both endpoints' NICs; RPCs run a registered
handler coroutine on the destination node. This models what the paper calls
"network round-trip overheads between clients and metadata servers" and the
gRPC traffic between ArkFS clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .engine import SimGen, SimIter, Simulator
from .resources import BandwidthPipe, Resource

__all__ = ["NetParams", "Node", "Network", "RpcError", "NodeDown",
           "MessageDropped"]


class RpcError(Exception):
    """Transport-level RPC failure (destination down / unreachable)."""


class NodeDown(RpcError):
    """The destination node is not alive."""


class MessageDropped(NodeDown):
    """A message was lost in transit (fault injection).

    Subclasses :class:`NodeDown` because the sender cannot distinguish a
    lost message from a dead peer — it burns its RPC timeout and takes the
    same retry path either way."""


@dataclass(frozen=True)
class NetParams:
    """Link characteristics, defaulting to a 10 GbE LAN."""

    latency_s: float = 50e-6          # one-way propagation + stack latency
    bandwidth_bps: float = 10e9 / 8   # bytes/sec per NIC
    rpc_timeout_s: float = 1.0        # time wasted detecting a dead peer


class Node:
    """A machine in the cluster: CPU cores, a NIC, and an RPC dispatch table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 1,
        net: Optional["Network"] = None,
        nic_bps: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, capacity=cores, name=f"{name}.cpu")
        self.net = net
        bw = nic_bps if nic_bps is not None else (net.params.bandwidth_bps if net else 10e9 / 8)
        self.nic = BandwidthPipe(sim, bw, name=f"{name}.nic")
        self.alive = True
        # QoS tenant attribution: set by build_arkfs / bind_tenant when the
        # QoS plane is enabled; stores read it only when qos is installed.
        self.tenant: Optional[str] = None
        self._handlers: Dict[str, Callable[..., SimGen]] = {}
        if net is not None:
            net.attach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} alive={self.alive}>"

    def work(self, seconds: float) -> SimIter:
        """Consume this node's CPU for ``seconds`` (queueing if contended).
        A flat helper: ``()`` when there is no work."""
        if seconds > 0:
            return self.cpu.use(seconds)
        return ()

    def register(self, method: str, handler: Callable[..., SimGen]) -> None:
        """Register an RPC handler: a generator function ``handler(*args)``."""
        self._handlers[method] = handler

    def crash(self) -> None:
        """Mark the node dead: future RPCs to it fail after a timeout."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True

    def call(
        self,
        target: "Node",
        method: str,
        *args: Any,
        req_size: int = 256,
        resp_size: int = 256,
    ) -> SimGen:
        """RPC from this node to ``target``; returns the handler's value.

        Application-level exceptions raised by the handler propagate to the
        caller (after paying the response network cost), mirroring how a gRPC
        error status travels back. Transport failures raise :class:`RpcError`.

        Not itself a generator function: it returns the underlying RPC
        generator so the untraced hot path costs a single frame under
        ``yield from``. Callers iterate it exactly as before.
        """
        if self.sim._tracer is None:
            return self._call(target, method, *args,
                              req_size=req_size, resp_size=resp_size)
        return self._traced_call(target, method, *args,
                                 req_size=req_size, resp_size=resp_size)

    def _traced_call(
        self,
        target: "Node",
        method: str,
        *args: Any,
        req_size: int = 256,
        resp_size: int = 256,
    ) -> SimGen:
        with self.sim._tracer.span("rpc:" + method, "rpc", dst=target.name):
            return (yield from self._call(target, method, *args,
                                          req_size=req_size,
                                          resp_size=resp_size))

    def _call(
        self,
        target: "Node",
        method: str,
        *args: Any,
        req_size: int = 256,
        resp_size: int = 256,
    ) -> SimGen:
        assert self.net is not None, "node not attached to a network"
        sim = self.sim
        # The qualified span name only matters when tracing; skip the
        # per-RPC f-string otherwise (the bare method still names the
        # process for debugging).
        name = (f"{method}@{target.name}" if sim._tracer is not None
                else method)
        if not self.alive:
            raise NodeDown(f"caller {self.name} is down")
        if target is self:
            # Local dispatch: no network, but still runs the handler.
            handler = target._handlers[method]
            result = yield sim.process(handler(*args), name=name)
            return result
        net = self.net
        if not net.try_instant_send(self, target, req_size):
            yield from net.send(self, target, req_size)
        if not target.alive:
            # Model the caller burning its RPC timeout discovering the death.
            yield self.sim.timeout(self.net.params.rpc_timeout_s)
            raise NodeDown(f"rpc {method!r}: node {target.name} is down")
        try:
            handler = target._handlers[method]
        except KeyError:
            raise RpcError(f"node {target.name} has no handler {method!r}") from None
        try:
            result = yield sim.process(handler(*args), name=name)
        except Exception:
            if target.alive and self.alive:
                yield from net.send(target, self, resp_size)
            raise
        if not target.alive:
            yield sim.timeout(net.params.rpc_timeout_s)
            raise NodeDown(f"rpc {method!r}: node {target.name} died mid-call")
        if not net.try_instant_send(target, self, resp_size):
            yield from net.send(target, self, resp_size)
        return result


class Network:
    """A flat cluster network with uniform latency and per-NIC bandwidth."""

    def __init__(self, sim: Simulator, params: Optional[NetParams] = None):
        self.sim = sim
        self.params = params or NetParams()
        # Params are frozen; cache the zero-latency check the instant-send
        # fast path makes on every message.
        self._lat0 = self.params.latency_s == 0.0
        self.nodes: Dict[str, Node] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Optional repro.faults.FaultPlan consulted per message; None (the
        # default) costs nothing — same contract as the span tracer.
        self.faults = None

    def attach(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.net = self

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def try_instant_send(self, src: Node, dst: Node, size: int) -> bool:
        """Non-generator fast path for :meth:`send`: deliver instantly and
        return True iff every segment (both NIC serializations and the
        latency hop) would individually short-circuit — zero latency, idle
        NICs, zero serialization time, no faults/tracer, nothing else
        runnable. All conditions are checked before any accounting so the
        elision is all-or-nothing; on False the caller pays :meth:`send`.

        Equivalent to ``send`` because when all three segments
        short-circuit, ``send`` completes without a single yield — the
        kernel state the conditions depend on cannot change mid-way."""
        sim = self.sim
        if (self._lat0 and size >= 0 and self.faults is None
                and sim._tracer is None and sim._inline_ok()):
            sp, dp = src.nic, dst.nic
            sres, dres = sp._res, dp._res
            if (sres._in_use < sres.capacity
                    and dres._in_use < dres.capacity
                    and size * sres.capacity / sp.bytes_per_sec == 0.0
                    and size * dres.capacity / dp.bytes_per_sec == 0.0):
                self.messages_sent += 1
                self.bytes_sent += size
                sp.bytes_moved += size
                dp.bytes_moved += size
                return True
        return False

    def send(self, src: Node, dst: Node, size: int) -> SimGen:
        """Move ``size`` bytes from ``src`` to ``dst``: NIC serialization at
        both ends plus propagation latency."""
        self.messages_sent += 1
        self.bytes_sent += size
        if self.faults is not None:
            act = self.faults.on_message(src.name, dst.name, size)
            if act is not None:
                action, delay = act
                if action == "drop":
                    # The sender can't see the loss directly; it burns its
                    # RPC timeout before concluding the peer is unreachable.
                    yield self.sim.timeout(self.params.rpc_timeout_s)
                    raise MessageDropped(
                        f"message {src.name}->{dst.name} dropped ({size}B)")
                yield self.sim.timeout(delay)
        yield from src.nic.transfer(size)
        sim = self.sim
        tr = sim._tracer
        lat = self.params.latency_s
        if tr is not None:
            with tr.span("net.lat", "net"):
                yield sim.timeout(lat)
        elif lat == 0.0:
            # Zero-latency hop: skip the timeout round-trip entirely when
            # nothing else is runnable right now (order-identical); fall
            # back to a plain zero timeout otherwise.
            if not sim._inline_ok():
                yield sim.timeout(0.0)
        else:
            t = sim._timeout_acquire(lat)
            yield t
            sim._timeout_release(t)
        yield from dst.nic.transfer(size)
