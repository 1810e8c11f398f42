"""Hop-by-hop network simulator.

Executes a :class:`~repro.runtime.scheme.RoutingScheme`'s forwarding
function exactly as the network would: the packet sits at a vertex, the
local algorithm sees only (local table, header) and returns a port; the
*network* (this simulator) moves the packet along that port.  The
simulator also:

* accounts path cost (sum of edge weights) and hop count,
* tracks the maximum header size in bits across the journey,
* enforces a hop budget, raising :class:`HopLimitExceeded` on loops,
* runs the full roundtrip protocol: outbound delivery at the
  destination host, acknowledgment emission, inbound delivery at the
  source host.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import HopLimitExceeded, RoutingError
from repro.runtime.scheme import Deliver, Forward, Header, RoutingScheme
from repro.runtime.sizing import header_bits

#: engine names understood by the batched entry points (resolved by
#: :meth:`Simulator.resolve_engine`; also re-exported by
#: :mod:`repro.runtime.engine`)
EXECUTION_ENGINES = ("auto", "vectorized", "python")


@dataclass
class LegTrace:
    """One direction of a journey.

    Attributes:
        path: vertices visited, inclusive of both endpoints.
        cost: total edge weight traversed.
        max_header_bits: largest header observed on this leg.
    """

    path: List[int]
    cost: float
    max_header_bits: int

    @property
    def hops(self) -> int:
        """Edge count of the leg."""
        return len(self.path) - 1


@dataclass
class RoundtripTrace:
    """Result of a full roundtrip ``s -> t -> s``.

    Attributes:
        outbound: the forward leg trace.
        inbound: the acknowledgment leg trace.
    """

    outbound: LegTrace
    inbound: LegTrace

    @property
    def total_cost(self) -> float:
        """Roundtrip path cost."""
        return self.outbound.cost + self.inbound.cost

    @property
    def total_hops(self) -> int:
        """Roundtrip hop count."""
        return self.outbound.hops + self.inbound.hops

    @property
    def max_header_bits(self) -> int:
        """Largest header observed anywhere in the journey."""
        return max(self.outbound.max_header_bits, self.inbound.max_header_bits)


class TraceBatch(Sequence):
    """A batch of roundtrips, in input order, held as arrays.

    ``cost``, ``hops`` and ``header_bits`` are ``(2, B)`` arrays of the
    per-leg figures (row 0 the outbound leg, row 1 the acknowledgment),
    so batch consumers read totals without building any trace.  The
    batch is also a sequence of :class:`RoundtripTrace`: the first read
    of any trace builds every leg's path at once (``leg_paths`` returns
    them packet-major: outbound then inbound of packet 0, then packet
    1, ...) and keeps them.
    """

    def __init__(
        self,
        cost: np.ndarray,
        hops: np.ndarray,
        header_bits: np.ndarray,
        leg_paths: Optional[Callable[[], List[List[int]]]],
    ):
        self.cost = cost
        self.hops = hops
        self.header_bits = header_bits
        self._leg_paths = leg_paths
        self._traces: Optional[List[RoundtripTrace]] = None

    @classmethod
    def from_traces(cls, traces: Iterable[RoundtripTrace]) -> "TraceBatch":
        """Wrap traces the Python simulator already built."""
        traces = list(traces)
        legs = [leg for t in traces for leg in (t.outbound, t.inbound)]

        def rows(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype).reshape(-1, 2).T

        batch = cls(
            rows([leg.cost for leg in legs], np.float64),
            rows([leg.hops for leg in legs], np.int64),
            rows([leg.max_header_bits for leg in legs], np.int64),
            None,
        )
        batch._traces = traces
        return batch

    def total_cost(self) -> np.ndarray:
        """Per-pair roundtrip cost (the float sum
        :attr:`RoundtripTrace.total_cost` makes)."""
        return self.cost[0] + self.cost[1]

    def total_hops(self) -> np.ndarray:
        """Per-pair roundtrip hop count."""
        return self.hops[0] + self.hops[1]

    def max_header_bits(self) -> np.ndarray:
        """Per-pair largest header observed on either leg."""
        return np.maximum(self.header_bits[0], self.header_bits[1])

    def traces(self) -> List[RoundtripTrace]:
        """Every roundtrip's trace (built on the first call)."""
        traces = self._traces
        if traces is None:
            paths = self._leg_paths()
            out_cost, in_cost = self.cost.tolist()
            out_bits, in_bits = self.header_bits.tolist()
            traces = self._traces = [
                RoundtripTrace(LegTrace(p_out, c_out, b_out),
                               LegTrace(p_in, c_in, b_in))
                for p_out, p_in, c_out, c_in, b_out, b_in in zip(
                    paths[0::2], paths[1::2], out_cost, in_cost,
                    out_bits, in_bits,
                )
            ]
        return traces

    def __len__(self) -> int:
        return self.cost.shape[1]

    def __getitem__(self, index):
        return self.traces()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TraceBatch, list)):
            return self.traces() == list(other)
        return NotImplemented


class Simulator:
    """Executes packets against a scheme.

    Args:
        scheme: the routing scheme under test.
        hop_limit: per-leg hop budget; defaults to ``8 * n + 64``, far
            above any correct scheme's needs but small enough to catch
            loops quickly.
        tables: compiled-table family for the vectorized engine —
            ``"dense"``, ``"blocked"``, or ``"auto"`` (default; picks
            by graph size).  All families route bit-identically.
    """

    def __init__(
        self,
        scheme: RoutingScheme,
        hop_limit: Optional[int] = None,
        tables: str = "auto",
    ):
        self._scheme = scheme
        self._g = scheme.graph
        self._hop_limit = hop_limit or (8 * self._g.n + 64)
        self._tables = tables

    def _run_leg(
        self, start: int, header: Header, expect_end: int
    ) -> Tuple[LegTrace, Header]:
        """Drive the packet until delivery; return the trace and the
        header as delivered (the host sees that header)."""
        at = start
        path = [at]
        cost = 0.0
        max_bits = header_bits(header, self._g.n)
        for _hop in range(self._hop_limit + 1):
            decision = self._scheme.forward(at, header)
            if isinstance(decision, Deliver):
                if at != expect_end:
                    raise RoutingError(
                        f"scheme {self._scheme.name} delivered at vertex "
                        f"{at}, expected {expect_end}"
                    )
                return LegTrace(path, cost, max_bits), decision.header
            if not isinstance(decision, Forward):
                raise RoutingError(
                    f"scheme returned {type(decision).__name__}, expected "
                    "Forward or Deliver"
                )
            nxt = self._g.head_of_port(at, decision.port)
            cost += self._g.weight(at, nxt)
            at = nxt
            path.append(at)
            header = decision.header
            max_bits = max(max_bits, header_bits(header, self._g.n))
        raise HopLimitExceeded(
            f"scheme {self._scheme.name} exceeded {self._hop_limit} hops "
            f"routing from {start} to {expect_end} (loop?)"
        )

    def one_way(self, source: int, dest_name: int) -> LegTrace:
        """Route a fresh packet ``source -> dest`` and stop at delivery
        (used for leg-level substrate experiments)."""
        dest_vertex = self._scheme.vertex_of(dest_name)
        header = self._scheme.new_packet_header(dest_name)
        trace, _final = self._run_leg(source, header, dest_vertex)
        return trace

    def roundtrip(self, source: int, dest_name: int) -> RoundtripTrace:
        """Run the full protocol: inject at ``source`` a packet for
        ``dest_name``; deliver; let the destination host emit the
        acknowledgment; deliver back at the source.

        Args:
            source: source *vertex* (where the packet enters the
                network).
            dest_name: destination *name* (all the packet knows).
        """
        dest_vertex = self._scheme.vertex_of(dest_name)
        header = self._scheme.new_packet_header(dest_name)
        outbound, delivered = self._run_leg(source, header, dest_vertex)
        # The destination host flips the packet around; learned routing
        # information stays in the header (Section 1.1.1).
        return_header = self._scheme.make_return_header(delivered)
        inbound, _final = self._run_leg(dest_vertex, return_header, source)
        return RoundtripTrace(outbound, inbound)

    def resolve_engine(self, engine: str = "auto") -> str:
        """The concrete engine a batched call would use.

        ``"auto"`` resolves to ``"vectorized"`` exactly when the scheme
        compiles (see
        :meth:`~repro.runtime.scheme.RoutingScheme.compile_tables`),
        ``"python"`` otherwise.

        Raises:
            RoutingError: for an unknown engine name, or for an
                explicit ``"vectorized"`` request on a scheme that does
                not compile.
        """
        if engine not in EXECUTION_ENGINES:
            raise RoutingError(
                f"unknown execution engine {engine!r}; choose from "
                f"{EXECUTION_ENGINES}"
            )
        if engine == "python":
            return "python"
        compiled = self._scheme.compiled_routes(self._tables)
        if compiled is not None:
            return "vectorized"
        if engine == "vectorized":
            raise RoutingError(
                f"scheme {self._scheme.name} does not support compiled "
                "vectorized execution (compile_tables() returned None); "
                "use engine='auto' or 'python'"
            )
        return "python"

    def resolve_tables(self) -> Optional[str]:
        """The concrete compiled-table family batched vectorized calls
        use (``"dense"`` or ``"blocked"``), or ``None`` when the scheme
        does not compile at all."""
        compiled = self._scheme.compiled_routes(self._tables)
        return None if compiled is None else compiled.family

    def roundtrip_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        by_name: bool = False,
        engine: str = "auto",
    ) -> TraceBatch:
        """Run the full roundtrip protocol for a batch of pairs.

        This is the entry point for traffic workloads (see
        :mod:`repro.runtime.traffic`): one simulator instance amortizes
        scheme/graph lookups across the whole batch, and every journey
        is executed under the same hop budget.

        Args:
            pairs: ``(source, destination)`` pairs.  Sources are always
                vertex ids.  Destinations are vertex ids by default
                (translated through the scheme's naming, matching how
                workload generators produce pairs); pass
                ``by_name=True`` when destinations already are names.
            engine: ``"vectorized"`` executes the batch as frontier
                sweeps over the scheme's compiled decision tables
                (:mod:`repro.runtime.engine`); ``"python"`` runs the
                hop-by-hop reference loop; ``"auto"`` (default) uses
                the vectorized engine whenever the scheme compiles.
                All engines produce bit-identical traces.

        Returns:
            A :class:`TraceBatch`: per-leg cost, hop and header-bit
            arrays, and one :class:`RoundtripTrace` per pair, in input
            order (the vectorized engine builds paths on first read).

        Raises:
            RoutingError: propagated from any journey — batch
                measurement never hides a delivery bug — and for
                unsupported engine requests (see :meth:`resolve_engine`).
            HopLimitExceeded: when any journey exceeds the hop budget.
        """
        if self.resolve_engine(engine) == "vectorized":
            from repro.runtime.engine import run_roundtrips

            vertex_of = self._scheme.vertex_of
            vertex_pairs = [
                (s, vertex_of(t) if by_name else t) for (s, t) in pairs
            ]
            return run_roundtrips(
                self._scheme.compiled_routes(self._tables),
                vertex_pairs,
                self._hop_limit,
                scheme_name=self._scheme.name,
            )
        name_of = self._scheme.name_of
        return TraceBatch.from_traces(
            self.roundtrip(s, t if by_name else name_of(t))
            for (s, t) in pairs
        )
