"""The half-duplex P2P wireless medium (Section III / V-A).

Every host has one P2P network interface with an omnidirectional antenna and
transmission range ``TranRange``.  The medium is modelled CSMA-style with a
per-host *busy-until* horizon: a transmission defers until its sender's
radio is free, then occupies the radios of every host in range for the
transmission time.  This deadlock-free approximation reproduces the local
congestion effects the paper reports for large motion groups (Fig. 5) and
dense systems (Fig. 7).

Power is charged per Table I: broadcast send/receive for REQUEST beacons,
point-to-point send/receive plus bystander-discard costs for targeted
messages.

Every send is a :class:`Transmission`: wait for the medium, start, finish.
Protocol code that needs the outcome runs it through the process helpers
(:meth:`P2PNetwork.broadcast`, :meth:`~P2PNetwork.unicast`,
:meth:`~P2PNetwork.unicast_route`); fire-and-forget sends (floods, replies,
retrieve serves, signature traffic) go through
:meth:`~P2PNetwork.post_broadcast` / :meth:`~P2PNetwork.post_route`, which
run the same steps as kernel callbacks with no process per message.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mobility.field import MobilityField
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.power import PowerLedger, PowerModel
from repro.sim.kernel import Environment, Event, Timeout

__all__ = ["P2PNetwork", "Transmission"]

Handler = Callable[[Message], None]


class P2PNetwork:
    """Broadcast / point-to-point primitives over the shared medium."""

    def __init__(
        self,
        env: Environment,
        field: MobilityField,
        bandwidth_bps: float,
        tran_range: float,
        ledger: PowerLedger,
        model: Optional[PowerModel] = None,
        faults: Optional[FaultInjector] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if tran_range <= 0:
            raise ValueError("transmission range must be positive")
        self.env = env
        self.field = field
        self.bandwidth_bps = float(bandwidth_bps)
        self.tran_range = float(tran_range)
        self.ledger = ledger
        self.model = model or PowerModel()
        #: Optional seeded loss process; ``None`` keeps the ideal channel.
        self.faults = faults
        n = len(field)
        self.connected = np.ones(n, dtype=bool)
        # Busy-until horizon per radio, as Python floats: the poll step
        # reads one entry per wake-up, and its gap becomes a kernel time.
        self._busy_until: List[float] = [0.0] * n
        self._handlers: List[Optional[Handler]] = [None] * n
        # Traffic counters (for diagnostics and the ablation benches).
        self.broadcasts = 0
        self.unicasts = 0
        self.failed_unicasts = 0
        # Per-snapshot-bucket neighbor memo: positions are frozen within a
        # quantisation bucket and this class owns every ``connected`` flip,
        # so repeated range queries for the same host can reuse the first
        # result until the bucket or the connectivity mask changes.
        self._nbr_cache: Dict[int, np.ndarray] = {}
        self._nbr_time = -math.inf
        # Scratch masks for the unicast bystander partition.
        self._near_src_mask = np.zeros(n, dtype=bool)
        self._near_dst_mask = np.zeros(n, dtype=bool)
        # Table I costs per message size, from the model's own ``v*b + f``.
        self._bc_cost_memo: Dict[int, Tuple[float, float]] = {}
        self._ptp_cost_memo: Dict[int, Tuple[float, float, float, float, float]] = {}
        # Down-transition watchers: events succeeded when a node leaves
        # the air (crash or graceful disconnect).  Used by the failure-
        # aware retrieve path to fail over the moment a serving peer
        # drops instead of burning the full data-guard timeout.
        self._down_watchers: Dict[int, List[object]] = {}

    # -- wiring ---------------------------------------------------------------

    def register_handler(self, node: int, handler: Handler) -> None:
        """Install the receive callback of a host."""
        self._handlers[node] = handler

    def set_connected(self, node: int, is_connected: bool) -> None:
        self.connected[node] = is_connected
        self._nbr_cache.clear()
        if not is_connected:
            watchers = self._down_watchers.pop(node, None)
            if watchers:
                for event in watchers:
                    if not event.triggered:
                        event.succeed(node)

    def is_connected(self, node: int) -> bool:
        return bool(self.connected[node])

    def watch_down(self, node: int, event) -> None:
        """Succeed ``event`` (with the node index) when ``node`` next
        goes off the air; fires immediately if it is already down."""
        if not self.connected[node]:
            if not event.triggered:
                event.succeed(node)
            return
        self._down_watchers.setdefault(node, []).append(event)

    def unwatch_down(self, node: int, event) -> None:
        """Withdraw a watcher registered with :meth:`watch_down`."""
        watchers = self._down_watchers.get(node)
        if watchers is None:
            return
        try:
            watchers.remove(event)
        except ValueError:
            return
        if not watchers:
            del self._down_watchers[node]

    # -- physical layer --------------------------------------------------------

    def tx_time(self, size_bytes: int) -> float:
        """Air time of a message of the given size."""
        return size_bytes * 8.0 / self.bandwidth_bps

    def neighbors(self, node: int) -> np.ndarray:
        """Connected hosts currently within transmission range of ``node``.

        Memoised per position-snapshot bucket: a third of range queries in
        a sweep repeat an earlier (host, instant) pair.  The returned array
        is shared with later callers — treat it as read-only.
        """
        bucket = self.field.quantise(self.env.now)
        if bucket != self._nbr_time:
            self._nbr_cache.clear()
            self._nbr_time = bucket
        cached = self._nbr_cache.get(node)
        if cached is None:
            cached = self.field.neighbors_of(
                node, self.env.now, self.tran_range, include_mask=self.connected
            )
            self._nbr_cache[node] = cached
        return cached

    def reachable(self, src: int, dst: int, max_hops: int) -> bool:
        """Whether ``dst`` is within ``max_hops`` P2P hops of ``src`` now.

        Used for oracle membership-reachability checks; the protocols
        themselves only use broadcast/unicast.
        """
        if src == dst:
            return True
        if not (self.connected[src] and self.connected[dst]):
            return False
        seen = {src}
        frontier = deque([(src, 0)])
        while frontier:
            node, depth = frontier.popleft()
            if depth == max_hops:
                continue
            for peer in self.neighbors(node):
                peer = int(peer)
                if peer == dst:
                    return True
                if peer not in seen:
                    seen.add(peer)
                    frontier.append((peer, depth + 1))
        return False

    def _bc_costs(self, size: int) -> Tuple[float, float]:
        """Broadcast (send, receive) power for a message of ``size`` bytes."""
        costs = self._bc_cost_memo.get(size)
        if costs is None:
            costs = (self.model.bc_send(size), self.model.bc_recv(size))
            self._bc_cost_memo[size] = costs
        return costs

    def _ptp_costs(self, size: int) -> Tuple[float, float, float, float, float]:
        """Point-to-point (send, receive, discard-sd, discard-s, discard-d)."""
        costs = self._ptp_cost_memo.get(size)
        if costs is None:
            model = self.model
            costs = (
                model.ptp_send(size),
                model.ptp_recv(size),
                model.ptp_discard_sd(size),
                model.ptp_discard_s(size),
                model.ptp_discard_d(size),
            )
            self._ptp_cost_memo[size] = costs
        return costs

    # -- awaited sends (process helpers) ------------------------------------------

    def broadcast(
        self,
        src: int,
        message: Message,
        purpose: str = "data",
        signature_bytes: int = 0,
    ):
        """Transmit to every connected host in range.

        Process helper (``yield from``); returns the receiver indices.
        Receivers are fixed at transmission start; delivery happens after the
        air time, to hosts still connected.  ``signature_bytes`` attributes
        the variable power cost of that many piggybacked bytes (GroCoCa's
        signature update information) to the ledger's ``signature`` purpose.
        """
        send = Transmission(self, (src,), message, purpose, signature_bytes)
        return (yield from send.run())

    def unicast(self, src: int, dst: int, message: Message, purpose: str = "data"):
        """Transmit to one host.

        Process helper; returns True when delivered.  The sender spends
        power regardless; bystanders in range of the source and/or the
        destination pay the Table I discard costs.
        """
        return (yield from Transmission(self, (src, dst), message, purpose).run())

    def unicast_route(
        self, path: List[int], message: Message, purpose: str = "data"
    ):
        """Relay a message hop-by-hop along ``path`` (first element = sender).

        Process helper; returns True when every hop succeeded.  Only the
        final destination's handler sees the message.  Used for
        replies/retrievals to peers found beyond one hop (HopDist > 1).
        """
        _check_route(path)
        return (yield from Transmission(self, path, message, purpose).run())

    # -- fire-and-forget sends (kernel callbacks) ---------------------------------

    def post_broadcast(
        self,
        src: int,
        message: Message,
        purpose: str = "data",
        signature_bytes: int = 0,
    ) -> None:
        """:meth:`broadcast` without a waiting process.

        The first step is scheduled at the current instant, behind
        everything already scheduled for it, exactly where spawning a
        process would have scheduled its bootstrap.
        """
        Transmission(self, (src,), message, purpose, signature_bytes).post()

    def post_route(
        self,
        path: Sequence[int],
        message: Optional[Message] = None,
        purpose: str = "data",
        compose: Optional[Callable[[Any], Optional[Message]]] = None,
        arg: Any = None,
        on_delivered: Optional[Handler] = None,
    ) -> None:
        """:meth:`unicast_route` (or, for a two-host path, :meth:`unicast`)
        without a waiting process.

        With ``compose``, the message is built by ``compose(arg)`` when the
        first step runs rather than now, so it reads the sender's state at
        the same instant a spawned process would have; a ``None`` result
        sends nothing.  ``on_delivered(message)`` runs right after the final
        destination's handler.
        """
        _check_route(path)
        Transmission(
            self, path, message, purpose, 0, compose, arg, on_delivered
        ).post()


class Transmission:
    """One P2P send, as a slotted three-step state machine.

    * :meth:`wait` — poll: while the sender's radio is busy, a Timeout to
      sleep on (CSMA deferral);
    * :meth:`start` — occupy the radios in range, charge Table I power and
      schedule the air time;
    * :meth:`finish` — deliver to the receivers still connected, or count
      a failed unicast.

    ``route`` is ``(src,)`` for a broadcast and the host path for a
    (relayed) unicast; after every delivered hop the next one starts at
    once.  Two drivers run these steps and schedule the same Timeouts at
    the same points: :meth:`run` is the generator behind the awaited sends
    of :class:`P2PNetwork`, and :meth:`post` / :meth:`begin` /
    :meth:`advance` / :meth:`complete` run them as kernel callbacks for
    fire-and-forget sends, so no generator or process exists per message.
    """

    __slots__ = (
        "network",
        "route",
        "hop",
        "message",
        "purpose",
        "signature_bytes",
        "compose",
        "arg",
        "on_delivered",
        "receivers",
        "deliverable",
    )

    def __init__(
        self,
        network: P2PNetwork,
        route: Sequence[int],
        message: Optional[Message],
        purpose: str = "data",
        signature_bytes: int = 0,
        compose: Optional[Callable[[Any], Optional[Message]]] = None,
        arg: Any = None,
        on_delivered: Optional[Handler] = None,
    ):
        self.network = network
        self.route = route
        self.hop = 0
        self.message = message
        self.purpose = purpose
        self.signature_bytes = signature_bytes
        self.compose = compose
        self.arg = arg
        self.on_delivered = on_delivered
        self.receivers: List[int] = []
        self.deliverable = False

    # -- steps ------------------------------------------------------------------

    def wait(self) -> Optional[Timeout]:
        """Poll step: the Timeout to sleep on while the sender's radio is
        busy, or ``None`` once the medium is free."""
        network = self.network
        gap = network._busy_until[self.route[self.hop]] - network.env.now
        if gap > 1e-12:
            return network.env.timeout(gap)
        return None

    def start(self) -> Optional[Timeout]:
        """Start step: occupy the radios, charge power, schedule the air time.

        Returns the air-time Timeout, or ``None`` when the sender is off
        the air (nothing is sent and nothing is charged).
        """
        network = self.network
        route = self.route
        src = route[self.hop]
        if len(route) > 1:
            dst = route[self.hop + 1]
            if src == dst:
                raise ValueError("unicast to self")
        if not network.connected[src]:
            return None
        env = network.env
        now = env.now
        size = self.message.size
        air = network.tx_time(size)
        end = now + air
        busy = network._busy_until
        ledger = network.ledger
        purpose = self.purpose
        if len(route) == 1:
            receivers = network.neighbors(src)
            targets = receivers.tolist()
            if busy[src] < end:
                busy[src] = end
            for receiver in targets:
                if busy[receiver] < end:
                    busy[receiver] = end
            send_cost, recv_cost = network._bc_costs(size)
            signature_bytes = self.signature_bytes
            if signature_bytes > 0:
                parameters = network.model.parameters
                sig_send = parameters.bc_send_v * signature_bytes
                sig_recv = parameters.bc_recv_v * signature_bytes
                ledger.charge(src, sig_send, "signature")
                ledger.charge_many(receivers, sig_recv, "signature")
                send_cost -= sig_send
                recv_cost -= sig_recv
            ledger.charge(src, send_cost, purpose)
            ledger.charge_many(receivers, recv_cost, purpose)
            self.receivers = targets
            network.broadcasts += 1
            return env.timeout(air)
        near_src = network.neighbors(src)
        near_dst = network.neighbors(dst)
        # Bystander partition as boolean masks over the population: each
        # host lands in exactly one disjoint class.
        in_src = network._near_src_mask
        in_dst = network._near_dst_mask
        in_src[:] = False
        in_src[near_src] = True
        in_dst[:] = False
        in_dst[near_dst] = True
        in_dst[src] = False
        deliverable = bool(in_src[dst] and network.connected[dst])
        self.deliverable = deliverable
        if busy[src] < end:
            busy[src] = end
        for bystander in near_src.tolist():
            if busy[bystander] < end:
                busy[bystander] = end
        send, recv, discard_sd, discard_s, discard_d = network._ptp_costs(size)
        ledger.charge(src, send, purpose)
        if deliverable:
            ledger.charge(dst, recv, purpose)
        in_src[dst] = False  # bystanders exclude the destination itself
        ledger.charge_many(np.nonzero(in_src & in_dst)[0], discard_sd, purpose)
        ledger.charge_many(np.nonzero(in_src & ~in_dst)[0], discard_s, purpose)
        ledger.charge_many(np.nonzero(in_dst & ~in_src)[0], discard_d, purpose)
        network.unicasts += 1
        return env.timeout(air)

    def finish(self) -> Union[List[int], bool]:
        """Finish step, at the end of the air time.

        A broadcast delivers to every receiver still connected whose frame
        survives the loss process and returns their indices.  A unicast hop
        returns whether it arrived (a miss counts one failed unicast); only
        the route's final destination has its handler called.
        """
        network = self.network
        faults = network.faults
        up = network.connected
        handlers = network._handlers
        message = self.message
        route = self.route
        if len(route) == 1:
            delivered = []
            for receiver in self.receivers:
                if not up[receiver]:
                    continue
                if faults is not None and faults.drop_p2p(receiver):
                    continue  # frame corrupted at this receiver; power already paid
                delivered.append(receiver)
                handler = handlers[receiver]
                if handler is not None:
                    handler(message)
            return delivered
        dst = route[self.hop + 1]
        if not (self.deliverable and up[dst]) or (
            faults is not None and faults.drop_p2p(dst)
        ):
            network.failed_unicasts += 1
            return False
        if self.hop + 2 == len(route):
            handler = handlers[dst]
            if handler is not None:
                handler(message)
        return True

    # -- generator driver -------------------------------------------------------

    def run(self):
        """Run every step as a process helper; returns :meth:`finish`'s
        result (False / ``[]`` when the sender was off the air)."""
        route = self.route
        while True:
            wait = self.wait()
            while wait is not None:
                yield wait
                wait = self.wait()
            air = self.start()
            if air is None:
                return [] if len(route) == 1 else False
            yield air
            delivered = self.finish()
            if len(route) == 1 or not delivered:
                return delivered
            self.hop += 1
            if self.hop + 1 == len(route):
                return True

    # -- callback driver --------------------------------------------------------

    def post(self) -> None:
        """Schedule the first step at the current instant: :meth:`begin`
        when the message is still to be composed, else :meth:`advance`."""
        first = self.advance if self.compose is None else self.begin
        self.network.env.timeout(0.0).callbacks.append(first)

    def begin(self, _fired: Event) -> None:
        """First step of a deferred send: compose the message, then go."""
        self.message = self.compose(self.arg)
        if self.message is not None:
            self.advance()

    def advance(self, _fired: Optional[Event] = None) -> None:
        """Poll the medium; start transmitting once it is free."""
        wait = self.wait()
        if wait is not None:
            wait.callbacks.append(self.advance)
            return
        air = self.start()
        if air is not None:
            air.callbacks.append(self.complete)

    def complete(self, _fired: Event) -> None:
        """Deliver; then relay onward, or report the final delivery."""
        delivered = self.finish()
        route = self.route
        if len(route) == 1 or not delivered:
            return
        self.hop += 1
        if self.hop + 1 < len(route):
            self.advance()
        elif self.on_delivered is not None:
            self.on_delivered(self.message)


def _check_route(path: Sequence[int]) -> None:
    if len(path) < 2:
        raise ValueError("route needs at least sender and destination")
