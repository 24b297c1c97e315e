"""Rank-explicit SPMD replay of the 1.5D BFS (distributed-semantics proof).

The main engine (:class:`repro.core.engine.DistributedBFS`) computes in a
single address space and charges communication analytically.  This module
is its *independent cross-check*: a BFS where

- every rank owns only its slice of state (local visited/parent arrays,
  its copies of the E bitmap and its column/row H delegate bitmaps);
- a rank reads **nothing** but its own state — every bit of remote
  information arrives through :class:`~repro.runtime.comm.SimCommunicator`
  collectives (delegate allreduces, row alltoallv for H2L/L2H, two-stage
  forwarded alltoallv for L2L);
- updates are applied by the receiving owner only.

If the 1.5D placement were wrong — an arc stored on a rank that lacks its
source's frontier bit, a message routed off-row — this engine would
produce a wrong BFS tree or crash on a missing key.  The test suite runs
it against the main engine and the serial reference and asserts equal
levels, plus that the communicator's measured volumes match the analytic
ledger's for the same traversal.

The replay mounts the same
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` as every other
engine: one :class:`_ReplayKernel` per component performs the per-rank
sweep (judging arc activity only from each rank's own state) and buffers
messages; the host's ``end_iteration`` hook routes them, lets owners
apply updates, and syncs the delegate bitmaps.  The replay is
deliberately simple (top-down only, no cost shortcuts): its job is
semantics, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.kernels.base import EMPTY_ACTIVATION, ComponentKernel
from repro.core.kernels.scheduler import LevelSyncScheduler, SchedulerHost
from repro.core.partition import PartitionedGraph, VertexClass
from repro.core.subgraphs import COMPONENT_ORDER
from repro.machine.costmodel import CostModel
from repro.machine.network import MachineSpec
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import Tracer
from repro.runtime.comm import SimCommunicator
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = ["ReplayBFS", "ReplayResult"]


@dataclass
class _RankState:
    """Everything one rank is allowed to touch."""

    rank: int
    #: Owned vertex interval [lo, hi).
    lo: int
    hi: int
    #: Visited/parent for owned vertices only.
    visited: np.ndarray
    parent: np.ndarray
    #: Frontier bits of owned vertices (current iteration).
    active: np.ndarray
    #: Global E bitmap replica (E is delegated on every node).
    e_active: np.ndarray
    e_visited: np.ndarray
    #: H bitmaps for the H vertices of this rank's mesh column (sources
    #: are read from column delegates) and row (destination updates are
    #: collected by row delegates).
    col_h_active: np.ndarray
    col_h_visited: np.ndarray
    row_h_visited: np.ndarray
    #: Local parent records for delegated vertices (delayed reduction).
    delegate_parents: dict[int, int] = field(default_factory=dict)


@dataclass
class ReplayResult:
    """Outcome of a replay run."""

    root: int
    parent: np.ndarray
    num_iterations: int
    ledger: TrafficLedger
    messages_sent: int


class _ReplayKernel(ComponentKernel):
    """Per-rank top-down sweep of one component.

    Reads only each rank's private state (via the host's
    ``_active_mask`` placement proof), applies rank-local updates, and
    buffers remote messages into the host's send queues; the host routes
    them at iteration end, so the kernel itself activates nothing.
    """

    def __init__(self, host: "ReplayBFS", name: str) -> None:
        self.host = host
        self.name = name

    @property
    def num_arcs(self) -> int:
        return self.host.part.components[self.name].num_arcs

    def execute(self, direction, active, visited, ledger, record):
        host, name = self.host, self.name
        mesh, part, n = host.mesh, host.part, host.n
        sent = 0
        for r, (s_arr, d_arr) in host._rank_arcs[name].items():
            st = host._ranks[r]
            sel = host._active_mask(st, name, s_arr)
            if not np.any(sel):
                continue
            src_sel = s_arr[sel]
            dst_sel = d_arr[sel]
            if name in ("EH2EH", "E2L", "L2E"):
                # destination update is rank-local (delegate or owned)
                for u, v in zip(src_sel.tolist(), dst_sel.tolist()):
                    host._local_update(host._ranks, st, v, u, host._new_by_owner)
            elif name == "H2L":
                o_dst = mesh.owner_of(dst_sel, n)
                if np.any(mesh.row_of(o_dst) != mesh.row_of(r)):
                    raise AssertionError("H2L message left its row")
                for u, v, o in zip(
                    src_sel.tolist(), dst_sel.tolist(), o_dst.tolist()
                ):
                    host._row_sends.setdefault(r, {}).setdefault(o, []).append(
                        (v, u)
                    )
                    sent += 1
            elif name == "L2H":
                # message to the intersection rank (sender's row, the
                # H destination's delegate column) — intra-row.
                dest = int(mesh.row_of(r)) * mesh.cols + part.eh_col[dst_sel]
                for u, v, o in zip(
                    src_sel.tolist(), dst_sel.tolist(), dest.tolist()
                ):
                    host._row_sends.setdefault(r, {}).setdefault(int(o), []).append(
                        (v, u)
                    )
                    sent += 1
            else:  # L2L, global two-stage
                o_dst = mesh.owner_of(dst_sel, n)
                for u, v, o in zip(
                    src_sel.tolist(), dst_sel.tolist(), o_dst.tolist()
                ):
                    host._global_sends.setdefault(r, {}).setdefault(o, []).append(
                        (v, u)
                    )
                    sent += 1
        if sent:
            record.messages[self.name] = sent
        host._messages += sent
        # Activations happen at iteration end, once routing delivers.
        return EMPTY_ACTIVATION


class ReplayBFS(SchedulerHost):
    """Top-down 1.5D BFS with genuinely per-rank state."""

    def __init__(
        self,
        part: PartitionedGraph,
        machine: MachineSpec | None = None,
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        self.part = part
        self.mesh: ProcessMesh = part.mesh
        if machine is None:
            machine = self.mesh.machine or MachineSpec(num_nodes=self.mesh.num_ranks)
        self.machine = machine
        self.n = part.num_vertices
        self.p = self.mesh.num_ranks

        self.num_vertices = self.n
        self.num_input_edges = part.total_arcs // 2
        self.cost = CostModel(machine)
        self.config = BFSConfig(max_iterations=self.n + 1)
        self.kernels = {
            name: _ReplayKernel(self, name) for name in COMPONENT_ORDER
        }
        self.scheduler = LevelSyncScheduler(
            self, self.kernels, tracer=tracer, metrics=metrics
        )

        # Per-component arcs grouped by owning rank, precomputed once.
        self._rank_arcs: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        for name, comp in part.components.items():
            per_rank: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            if comp.num_arcs:
                s, d, r = comp.arcs()
                order = np.argsort(r, kind="stable")
                s, d, r = s[order], d[order], r[order]
                bounds = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
                for i, start in enumerate(bounds):
                    stop = bounds[i + 1] if i + 1 < bounds.size else r.size
                    per_rank[int(r[start])] = (s[start:stop], d[start:stop])
            self._rank_arcs[name] = per_rank

        # H-vertex membership of each mesh column (for delegate bitmaps);
        # indexed by original vertex id -> position in the column set.
        self._col_h: list[np.ndarray] = []
        self._col_h_pos = np.full(self.n, -1, dtype=np.int64)
        h_mask = part.vclass == VertexClass.H
        for c in range(self.mesh.cols):
            members = np.flatnonzero(h_mask & (part.eh_col == c))
            self._col_h.append(members)
            self._col_h_pos[members] = np.arange(members.size)
        self._row_h: list[np.ndarray] = []
        self._row_h_pos = np.full(self.n, -1, dtype=np.int64)
        for rr in range(self.mesh.rows):
            members = np.flatnonzero(h_mask & (part.eh_row == rr))
            self._row_h.append(members)
            self._row_h_pos[members] = np.arange(members.size)

        self._e_pos = np.full(self.n, -1, dtype=np.int64)
        self._e_pos[part.e_ids] = np.arange(part.e_ids.size)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, root: int, **resilience) -> ReplayResult:
        result = self.scheduler.run(root, **resilience)
        return ReplayResult(
            root=root,
            parent=result.parent,
            num_iterations=result.num_iterations,
            ledger=result.ledger,
            messages_sent=self._messages,
        )

    # ------------------------------------------------------------------
    # scheduler hooks (the replay's SPMD machinery)
    # ------------------------------------------------------------------

    def make_ledger(self, tracer: Tracer, metrics=NULL_METRICS) -> TrafficLedger:
        ledger = TrafficLedger(self.cost, tracer=tracer, metrics=metrics)
        self._comm = SimCommunicator(self.mesh, ledger)
        self._messages = 0
        return ledger

    def _fresh_ranks(self) -> list[_RankState]:
        mesh, part = self.mesh, self.part
        ranks = []
        for r in range(self.p):
            lo, hi = mesh.vertex_range(r, self.n)
            col = int(mesh.col_of(r))
            ranks.append(
                _RankState(
                    rank=r,
                    lo=lo,
                    hi=hi,
                    visited=np.zeros(hi - lo, dtype=bool),
                    parent=np.full(hi - lo, -1, dtype=np.int64),
                    active=np.zeros(hi - lo, dtype=bool),
                    e_active=np.zeros(part.num_e, dtype=bool),
                    e_visited=np.zeros(part.num_e, dtype=bool),
                    col_h_active=np.zeros(self._col_h[col].size, dtype=bool),
                    col_h_visited=np.zeros(self._col_h[col].size, dtype=bool),
                    row_h_visited=np.zeros(
                        self._row_h[int(mesh.row_of(r))].size, dtype=bool
                    ),
                )
            )
        return ranks

    def seed(self, root: int) -> None:
        mesh = self.mesh
        self._ranks = self._fresh_ranks()
        owner_root = int(mesh.owner_of(root, self.n))
        st = self._ranks[owner_root]
        st.visited[root - st.lo] = True
        st.parent[root - st.lo] = root
        st.active[root - st.lo] = True
        self._seed_delegates(self._ranks, np.array([root]), np.array([root]))

    def restore(self, root: int, parent, visited, active) -> None:
        """Re-shard checkpointed global arrays into per-rank state.

        Each surviving rank rebuilds exactly what it is allowed to hold:
        its owned slices of ``visited``/``parent``/``active`` and its
        delegate replicas (global E bitmaps, column/row H bitmaps) taken
        from the restored global view — the SPMD analogue of reading the
        snapshot back from the parallel file system.
        """
        mesh, part = self.mesh, self.part
        self._ranks = self._fresh_ranks()
        e_active = active[part.e_ids] if part.num_e else np.zeros(0, dtype=bool)
        e_visited = visited[part.e_ids] if part.num_e else np.zeros(0, dtype=bool)
        for st in self._ranks:
            st.visited[:] = visited[st.lo:st.hi]
            st.parent[:] = np.where(
                st.visited, parent[st.lo:st.hi], -1
            )
            st.active[:] = active[st.lo:st.hi]
            st.e_active = e_active.copy()
            st.e_visited = e_visited.copy()
            col = int(mesh.col_of(st.rank))
            st.col_h_active = active[self._col_h[col]].astype(bool)
            st.col_h_visited = visited[self._col_h[col]].astype(bool)
            row = int(mesh.row_of(st.rank))
            st.row_h_visited = visited[self._row_h[row]].astype(bool)
            # Delegated vertices already reached keep their recorded
            # parents for the run-end delayed reduction.
            for v in np.flatnonzero(visited & (self._e_pos >= 0)).tolist():
                st.delegate_parents[v] = int(parent[v])
            for v in np.flatnonzero(
                visited & ((self._col_h_pos >= 0) | (self._row_h_pos >= 0))
            ).tolist():
                st.delegate_parents[v] = int(parent[v])

    def begin_iteration(self, ledger, active, visited) -> None:
        # The frontier-empty check is an allreduce in real MPI; the
        # scheduler's own emptiness test stands in for its result.
        self._comm.barrier("other", np.arange(self.p))
        self._new_by_owner = {r: [] for r in range(self.p)}
        self._row_sends = {}
        self._global_sends = {}

    def iteration_direction(self, active, visited) -> str:
        return "push"  # the replay is deliberately top-down only

    def end_iteration(self, ledger, record, active, visited, parent, next_active):
        ranks, comm = self._ranks, self._comm
        new_by_owner = self._new_by_owner
        self._route(comm, ranks, self._row_sends, new_by_owner, scope="row")
        self._route(comm, ranks, self._global_sends, new_by_owner, scope="global")

        # owners apply updates and build the next frontier + delegate
        # activation lists for the global sync.
        newly_v, newly_p = [], []
        for r, updates in new_by_owner.items():
            st = ranks[r]
            st.active[:] = False
            for v, pv in updates:
                idx = v - st.lo
                if not st.visited[idx]:
                    st.visited[idx] = True
                    st.parent[idx] = pv
                    st.active[idx] = True
                    newly_v.append(v)
                    newly_p.append(pv)
        # ranks whose updates were all duplicates still clear frontier
        for st in ranks:
            if st.rank not in new_by_owner:
                st.active[:] = False
        newly = np.array(newly_v, dtype=np.int64)
        parents = np.array(newly_p, dtype=np.int64)
        # mirror the owner-applied updates into the scheduler's global view
        if newly.size:
            parent[newly] = parents
            visited[newly] = True
            next_active[newly] = True
        self._seed_delegates(ranks, newly, parents, comm=comm)

    def end_run(self, ledger, tracer, parent) -> None:
        # the terminating frontier-empty check of the SPMD loop
        self._comm.barrier("other", np.arange(self.p))
        # delayed reduction of delegate-recorded parents
        for st in self._ranks:
            for v, pv in st.delegate_parents.items():
                if parent[v] == -1:
                    parent[v] = pv

    # ------------------------------------------------------------------

    def _seed_delegates(self, ranks, newly, parents, comm=None):
        """Propagate newly-activated E/H vertices into delegate bitmaps.

        In a real run this is the per-iteration delegate allreduce; here
        the OR-reduction is routed through the communicator when one is
        given (charging the ledger), then the reduced bits are installed
        into every rank's replicas.
        """
        part, mesh = self.part, self.mesh
        e_bits = np.zeros(part.num_e, dtype=bool)
        e_parents: dict[int, int] = {}
        col_bits = [np.zeros(self._col_h[c].size, dtype=bool) for c in range(mesh.cols)]
        col_parents: list[dict[int, int]] = [dict() for _ in range(mesh.cols)]
        row_bits = [np.zeros(self._row_h[rr].size, dtype=bool) for rr in range(mesh.rows)]
        for v, pv in zip(newly.tolist(), parents.tolist()):
            ep = self._e_pos[v]
            if ep >= 0:
                e_bits[ep] = True
                e_parents[v] = pv
            hp = self._col_h_pos[v]
            if hp >= 0:
                c = int(part.eh_col[v])
                col_bits[c][hp] = True
                col_parents[c][v] = pv
            rp = self._row_h_pos[v]
            if rp >= 0:
                row_bits[int(part.eh_row[v])][rp] = True
        if comm is not None and part.num_e:
            # global allreduce of E bits: every rank contributes, all get it
            e_bits = comm.allreduce_or(
                "other", np.arange(self.p), {r: e_bits for r in range(self.p)}
            )
        for st in ranks:
            st.e_active = e_bits.copy()
            st.e_visited |= e_bits
            c = int(mesh.col_of(st.rank))
            st.col_h_active = col_bits[c].copy()
            st.col_h_visited |= col_bits[c]
            rr = int(mesh.row_of(st.rank))
            st.row_h_visited |= row_bits[rr]
            st.delegate_parents.update(e_parents)
            st.delegate_parents.update(col_parents[c])
        if comm is not None and part.num_h and mesh.rows > 1:
            for c in range(mesh.cols):
                if col_bits[c].size:
                    comm.allreduce_or(
                        "other",
                        mesh.col_ranks(c),
                        {int(r): col_bits[c] for r in mesh.col_ranks(c)},
                    )
        if comm is not None and part.num_h and mesh.cols > 1:
            for rr in range(mesh.rows):
                if row_bits[rr].size:
                    comm.allreduce_or(
                        "other",
                        mesh.row_ranks(rr),
                        {int(r): row_bits[rr] for r in mesh.row_ranks(rr)},
                    )

    def _active_mask(self, st: _RankState, name: str, src: np.ndarray) -> np.ndarray:
        """Which stored arcs have an active source, *judged only from the
        rank's own state* — this is the placement-correctness core."""
        part = self.part
        if name in ("EH2EH", "H2L"):
            # source is E (global replica) or H (column delegate replica)
            e_idx = self._e_pos[src]
            h_idx = self._col_h_pos[src]
            out = np.zeros(src.size, dtype=bool)
            has_e = e_idx >= 0
            out[has_e] = st.e_active[e_idx[has_e]]
            has_h = h_idx >= 0
            if np.any(has_h):
                cols = part.eh_col[src[has_h]]
                mine = cols == int(self.mesh.col_of(st.rank))
                if not np.all(mine):
                    raise AssertionError(
                        f"{name} arc stored off its source's delegate column"
                    )
                out[np.flatnonzero(has_h)] = st.col_h_active[h_idx[has_h]]
            return out
        if name == "E2L":
            return st.e_active[self._e_pos[src]]
        # L-source components: the source must be an owned vertex.
        if np.any((src < st.lo) | (src >= st.hi)):
            raise AssertionError(f"{name} arc stored away from its source owner")
        return st.active[src - st.lo]

    def _local_update(self, ranks, st, v, u, new_by_owner):
        """Apply an update the current rank can satisfy locally: owned
        destination, or a delegated E/H destination."""
        if st.lo <= v < st.hi:
            new_by_owner.setdefault(st.rank, []).append((v, u))
            return
        ep = self._e_pos[v]
        if ep >= 0:
            if not st.e_visited[ep]:
                st.delegate_parents.setdefault(v, u)
                # mark for the iteration-end sync by forwarding to owner
                new_by_owner.setdefault(
                    int(self.mesh.owner_of(v, self.n)), []
                ).append((v, u))
            return
        # H destinations: collected by the *row* delegates (EH2EH arcs sit
        # on the destination's EH row); the column replica also absorbs
        # updates for arcs placed by the source's column.
        rp = self._row_h_pos[v]
        if rp >= 0 and int(self.part.eh_row[v]) == int(self.mesh.row_of(st.rank)):
            if not st.row_h_visited[rp]:
                st.delegate_parents.setdefault(v, u)
                new_by_owner.setdefault(
                    int(self.mesh.owner_of(v, self.n)), []
                ).append((v, u))
            return
        hp = self._col_h_pos[v]
        if hp >= 0 and int(self.part.eh_col[v]) == int(self.mesh.col_of(st.rank)):
            if not st.col_h_visited[hp]:
                st.delegate_parents.setdefault(v, u)
                new_by_owner.setdefault(
                    int(self.mesh.owner_of(v, self.n)), []
                ).append((v, u))
            return
        raise AssertionError(
            f"destination {v} is neither owned nor delegated on rank {st.rank}"
        )

    def _route(self, comm, ranks, sends, new_by_owner, scope):
        """Deliver buffered messages through the communicator."""
        mesh = self.mesh
        if not sends:
            return
        # encode (v, parent) pairs as v * n + parent
        n = self.n
        if scope == "row":
            for row in range(mesh.rows):
                group = mesh.row_ranks(row)
                payload = {
                    r: {
                        d: np.array([v * n + u for v, u in msgs], dtype=np.int64)
                        for d, msgs in sends.get(int(r), {}).items()
                    }
                    for r in group
                    if int(r) in sends
                }
                if not payload:
                    continue
                recv = comm.alltoallv("H2L", group, payload)
                self._apply_received(ranks, recv, new_by_owner)
        else:
            # stage 1: down the sender's column to the intersection rank
            fwd_sends: dict[int, dict[int, list]] = {}
            for s, by_dest in sends.items():
                for o_dst, msgs in by_dest.items():
                    fwd = int(
                        mesh.row_of(o_dst) * mesh.cols + mesh.col_of(s)
                    )
                    fwd_sends.setdefault(s, {}).setdefault(fwd, []).extend(
                        (v * n + u, o_dst) for v, u in msgs
                    )
            stage2_sends: dict[int, dict[int, list]] = {}
            for c in range(mesh.cols):
                group = mesh.col_ranks(c)
                payload = {}
                routing = {}
                for r in group:
                    r = int(r)
                    if r not in fwd_sends:
                        continue
                    payload[r] = {}
                    for fwd, pairs in fwd_sends[r].items():
                        payload[r][fwd] = np.array(
                            [code for code, _ in pairs], dtype=np.int64
                        )
                        routing.setdefault(fwd, []).extend(o for _, o in pairs)
                if not payload:
                    continue
                recv = comm.alltoallv("L2L", group, payload)
                for fwd, codes in recv.items():
                    dests = routing.get(fwd, [])
                    for code, o_dst in zip(codes.tolist(), dests):
                        stage2_sends.setdefault(fwd, {}).setdefault(
                            int(o_dst), []
                        ).append(code)
            # stage 2: along the intersection rank's row to the owner
            for row in range(mesh.rows):
                group = mesh.row_ranks(row)
                payload = {
                    int(r): {
                        d: np.array(codes, dtype=np.int64)
                        for d, codes in stage2_sends.get(int(r), {}).items()
                    }
                    for r in group
                    if int(r) in stage2_sends
                }
                if not payload:
                    continue
                recv = comm.alltoallv("L2L", group, payload)
                self._apply_received(ranks, recv, new_by_owner)

    def _apply_received(self, ranks, recv, new_by_owner):
        """Receivers apply messages through their own (delegate-aware)
        update path — owned destinations queue for the owner, delegated
        ones are absorbed by the local replica."""
        n = self.n
        for r, codes in recv.items():
            st = ranks[int(r)]
            for code in np.asarray(codes, dtype=np.int64).tolist():
                v, u = divmod(code, n)
                self._local_update(ranks, st, int(v), int(u), new_by_owner)
