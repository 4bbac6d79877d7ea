"""Batched tolerable-latency kernel — the whole latency grid at once.

The scalar reference (:class:`repro.core.latency.LatencySearch`, EXACT
strategy) answers "is candidate latency ``l`` safe?" one ``(actor,
candidate)`` pair at a time: for each of the ``L`` grid latencies it
builds a fresh ``t_n`` scan grid, re-derives the ego's coast/brake
profile, re-samples the threat and scans for a feasible check time.
Offline evaluation multiplies that by every actor at every trace tick —
the dominant interpreter overhead of a campaign.

This module replaces the inner loops with one array program over
``(tick, actor)`` rows — a tick's actors, a trace's gated rows, or a
whole campaign block of them:

* Latency candidates only shift the reaction time ``t_r``, so the whole
  family of ego distance/speed profiles is a single broadcasted
  ``(L, T)`` computation per tick over a shared master time grid
  (:func:`repro.core.ego_profile.ego_profile_arrays`).
* Each row's threat is sampled once over that master grid (plus the
  ``L`` reaction instants) instead of once per candidate
  (:func:`repro.core.threat.sample_grid`, or the assessor's row
  samplers).
* Eq 1/2 feasibility, the strict-prefix mask and the per-candidate scan
  windows evaluate simultaneously as ``(R, L, T)`` boolean arrays; the
  largest feasible latency falls out of a single argmax per row.

Exact-parity contract: results are **bit-identical** to the scalar
EXACT search — ``latency``, ``check_time`` *and* the ``iterations``
count feeding the Section 4.2 compute model. Three details make that
subtle, and each is reproduced here rather than approximated:

* The scalar scan grid for candidate ``l`` is
  ``arange(0, horizon_l + tn_step, tn_step)``; with a shared step each
  candidate's grid is a bit-exact *prefix* of the master grid, so one
  master ``arange`` plus per-candidate prefix lengths replays every
  scalar grid exactly.
* The search domain opens at ``t_n = t_r``, which need not be a grid
  multiple; the scalar search inserts it via ``union1d``. The kernel
  evaluates the ``t_r`` sample separately and merges its index
  arithmetic (insertion position, duplicate-on-grid detection) so scan
  positions — and therefore ``iterations`` — match the merged array's.
* The strict semantics kill every candidate ``t_n`` at or after the
  first distance violation anywhere in the scanned prefix; in index
  form that is "feasible iff the first candidate index precedes the
  first violation index", computed per (actor, candidate) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.ego_profile import EgoMotion, ego_profile_arrays
from repro.core.latency import _EPS, LatencyResult
from repro.core.parameters import ZhuyiParams
from repro.core.threat import LongitudinalThreat, sample_grid

#: Sentinel index: "no such position on the merged scan grid". Half the
#: int64 range so the +1 merge shifts can never overflow it.
_NO_INDEX = np.iinfo(np.int64).max // 2

#: Per-group workspace budget of :meth:`LatencyEngine._solve_rows_grouped`:
#: a tick group wider than ``_ROWS_CHUNK_ELEMENTS / (S * T)`` rows runs
#: its ``(G, S, T)`` feasibility program in chunks of that many rows, so
#: the float64 temporaries stay near the last-level cache. Past it every
#: broadcasted comparison turns memory-bound; ordinary campaign stacks
#: fit in one pass.
_ROWS_CHUNK_ELEMENTS = 2_000_000


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis (``_NO_INDEX`` if none)."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), _NO_INDEX)


def _reaction_anchors(
    ego: EgoMotion, reactions: np.ndarray, cap: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(d_e1, v_tr)`` per candidate, via the scalar closed forms."""
    pairs = [ego.reaction_travel(float(r), cap) for r in reactions]
    return (
        np.array([p[0] for p in pairs]),
        np.array([p[1] for p in pairs]),
    )


@dataclass(frozen=True)
class TraceGrid:
    """Trace-level candidate/time bookkeeping for every tick at once.

    The latency candidates and their reaction times depend only on the
    Zhuyi constants and ``l0`` — never on the ego — so they are shared
    by the whole trace; the per-tick quantities (scan horizons, prefix
    lengths, ``t_r`` insertions) vectorize over ticks. ``times`` is one
    trace-wide master grid: every tick's scan grid is a bit-exact
    prefix of it, so per-tick arrays never need rebuilding.
    """

    latencies: np.ndarray  #: (L,) candidate latencies, descending
    reactions: np.ndarray  #: (L,) reaction time t_r per candidate
    times: np.ndarray  #: (T,) trace-wide master scan grid
    insert_at: np.ndarray  #: (L,) sorted position of t_r on the master grid
    lengths: np.ndarray  #: (N, L) per-tick candidate prefix lengths
    inserted: np.ndarray  #: (N, L) bool: t_r occupies its own merged slot
    sizes: np.ndarray  #: (N, L) merged scan size (length + inserted)


@dataclass
class LatencyEngine:
    """Batched tolerable-latency solver.

    Drop-in equivalent of the scalar EXACT :class:`LatencySearch` —
    same :class:`LatencyResult`, bit-identical values — evaluated as
    one vectorized program over the full latency grid. Every solve goes
    through :meth:`trace_grid` + :meth:`solve_rows`; :meth:`solve_batch`
    is the one-tick entry point over threat objects.

    Attributes:
        params: the Zhuyi constants.
        strict: require the distance constraint on the whole scanned
            prefix up to ``t_n`` (the scalar search's default).
    """

    params: ZhuyiParams = field(default_factory=ZhuyiParams)
    strict: bool = True

    def solve(
        self, ego: EgoMotion, threat: LongitudinalThreat, l0: float
    ) -> LatencyResult:
        """One actor — :meth:`solve_batch` of a singleton."""
        return self.solve_batch(ego, [threat], l0)[0]

    def solve_batch(
        self,
        ego: EgoMotion,
        threats: Sequence[LongitudinalThreat],
        l0: float,
    ) -> list[LatencyResult]:
        """Solve every actor of a tick against the full latency grid.

        Args:
            ego: the ego's longitudinal state at the tick.
            threats: one threat view per actor (any mix of threat
                types); the ego-side arrays are computed once and
                shared.
            l0: current processing latency (enters ``alpha``).

        Returns:
            One :class:`LatencyResult` per threat, in input order.
        """
        if not threats:
            return []
        # A one-tick trace grid: every row sits on tick 0. One flattened
        # sample per actor covers both the master grid and the L
        # reaction instants.
        grid = self.trace_grid([ego], l0)
        all_times = np.concatenate([grid.times, grid.reactions])
        sampled = [sample_grid(threat, all_times) for threat in threats]
        return self.solve_rows(
            grid,
            np.zeros(len(threats), dtype=np.int64),
            [ego],
            np.stack([g for g, _ in sampled]),  # (A, T + L)
            np.stack([s for _, s in sampled]),
        )

    @staticmethod
    def _waves(n_latencies: int) -> list[tuple[int, int]]:
        """Doubling partition of the candidate grid: (0,1), (1,3), ...

        The descending grid is solved lazily in these waves: the l_max
        candidate alone first — most actors of a tick are benign and
        resolve right there, and eagerly evaluating the other L-1
        candidates for them would cost more than the scalar search's
        early exit — then geometrically growing slices for the
        survivors. The waves partition the grid (no row evaluates
        twice), so an actor whose answer sits at depth k pays at most
        ~2k rows and an unavoidable collision pays exactly L, while the
        scalar loop grinds k (or L) full scans one at a time.
        """
        waves = []
        lo, width = 0, 1
        while lo < n_latencies:
            waves.append((lo, min(lo + width, n_latencies)))
            lo += width
            width *= 2
        return waves

    # ------------------------------------------------------------------
    # trace-level batching (the "ticks" axis)
    # ------------------------------------------------------------------

    def trace_grid(
        self, ego_motions: Sequence[EgoMotion], l0: float
    ) -> TraceGrid:
        """Candidate/time bookkeeping for every tick of a trace at once.

        The reactions are tick-independent; the per-tick horizons (and
        the prefix lengths / ``t_r`` insertions they induce) vectorize
        over ticks with the same closed forms the scalar path evaluates
        one call at a time, so each tick's row is bit-identical to a
        one-tick ``trace_grid([ego], l0)`` build.

        Cross-trace stacking: ``ego_motions`` may concatenate the ticks
        of *many* traces (sharing ``l0``) along the tick axis. Every
        per-tick quantity above is a pure function of that tick's ego
        state, and the master ``times`` grid only grows a longer tail
        (``arange`` values are ``i * step`` regardless of the stop), so
        each tick's prefix — and hence every :meth:`solve_rows` answer
        — is bit-identical whether its trace was gridded alone or
        stacked.
        """
        params = self.params
        cap = params.ego_speed_cap
        step = params.tn_step
        latency_list = params.latency_grid()
        reactions = np.array(
            [
                latency + params.confirmation_delay(latency, l0)
                for latency in latency_list
            ]
        )

        if cap is None:
            # stop_time_after(r) = r + v_tr / a_b, with v_tr evaluated
            # by the very same branches travel() takes in the uncapped
            # case — including deciding "stopped during the reaction
            # window" by the time-to-zero division, so even knife-edge
            # ticks land on the same side as the scalar call.
            v0 = np.array([ego.speed for ego in ego_motions])
            a0 = np.array([ego.accel for ego in ego_motions])
            a_b = np.array([ego.braking_decel for ego in ego_motions])
            decelerating = a0 < 0.0
            with np.errstate(over="ignore"):
                # The division overflows to inf for subnormal
                # decelerations; inf means "never stops in-window",
                # exactly what the scalar branch concludes.
                time_to_zero = np.where(
                    decelerating, v0 / np.where(decelerating, -a0, 1.0), np.inf
                )
            stopped = time_to_zero[:, None] <= reactions[None, :]
            v_tr = np.where(
                stopped, 0.0, v0[:, None] + a0[:, None] * reactions[None, :]
            )
            stops = reactions[None, :] + v_tr / a_b[:, None]
            horizons = stops + params.horizon_margin
        else:
            # A speed cap brings travel()'s cap branches into play; the
            # capped closed form matches them except within one ulp of
            # the cap-crossing time, so stay on the scalar calls.
            horizons = np.array(
                [
                    [
                        ego.stop_time_after(float(r), cap)
                        + params.horizon_margin
                        for r in reactions
                    ]
                    for ego in ego_motions
                ]
            )

        lengths = np.ceil((horizons + step) / step).astype(np.int64)
        times = np.arange(0.0, float(horizons.max()) + step, step)
        insert_at = np.searchsorted(times, reactions)
        on_grid = times[np.minimum(insert_at, times.size - 1)] == reactions
        inserted = (reactions[None, :] <= horizons) & ~on_grid[None, :]
        return TraceGrid(
            latencies=np.array(latency_list),
            reactions=reactions,
            times=times,
            insert_at=insert_at.astype(np.int64),
            lengths=lengths,
            inserted=inserted,
            sizes=lengths + inserted,
        )

    def solve_rows(
        self,
        grid: TraceGrid,
        tick_indices: np.ndarray,
        ego_motions: Sequence[EgoMotion],
        gaps: np.ndarray,
        aspeeds: np.ndarray,
        constraints: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[LatencyResult]:
        """Solve a batch of (tick, actor) rows spanning many ticks.

        Each row pairs a tick index with that actor's threat samples
        over ``concatenate([grid.times, grid.reactions])`` (shape
        ``(R, T + L)``). Every candidate wave runs
        :meth:`_solve_rows_grouped` over the still-active rows: the
        l_max candidate — where most rows of most workloads resolve —
        first, for every row; only the survivors go on to the later
        waves, sharing the already-sampled rows. Rows need not
        be unique per (tick, actor): :meth:`solve_batch` feeds one
        tick's actors, the online replay one row per (tick, actor,
        prediction hypothesis), each solved independently against its
        tick's ego profile — and the offline block path one row per
        (tick, actor, parameter variant) of a trace.

        Args:
            grid: the :meth:`trace_grid` for these ticks.
            tick_indices: (R,) tick index of each row.
            ego_motions: per-tick ego states (trace-aligned).
            gaps / aspeeds: (R, T + L) threat samples per row.
            constraints: optional per-row ``(c1, c2)`` arrays of shape
                ``(R,)``, overriding ``params.c1``/``params.c2`` — the
                variant axis of the offline block kernel. Every
                other constant (the latency grid, ``k``, the ego
                profile, gating) still comes from ``params``, so only
                variants differing in nothing but c1/c2 may stack.
                Per-row broadcasting multiplies each row by its own
                scalar, so a row's feasibility program is bit-identical
                to a solve under an engine carrying that row's c1/c2.

        Returns:
            One :class:`LatencyResult` per row, in input order.
        """
        tick_indices = np.asarray(tick_indices)
        n_rows = tick_indices.size
        if n_rows == 0:
            return []
        if constraints is not None:
            row_c1 = np.asarray(constraints[0], dtype=float)
            row_c2 = np.asarray(constraints[1], dtype=float)
            if row_c1.shape != (n_rows,) or row_c2.shape != (n_rows,):
                raise ValueError(
                    "per-row constraints must be (R,) arrays matching "
                    f"{n_rows} rows, got {row_c1.shape} and {row_c2.shape}"
                )
            constraints = (row_c1, row_c2)
        # Per-tick cumulative merged scan sizes — the iterations charged
        # for missing every candidate before a hit.
        miss_prefix = np.concatenate(
            [
                np.zeros((grid.sizes.shape[0], 1), dtype=np.int64),
                np.cumsum(grid.sizes, axis=1),
            ],
            axis=1,
        )

        results: list[LatencyResult | None] = [None] * n_rows
        active = np.arange(n_rows)
        for lo, hi in self._waves(grid.latencies.size):
            if active.size == 0:
                break
            found, hit, check_times, scanned = self._solve_rows_grouped(
                grid,
                lo,
                hi,
                active,
                tick_indices,
                ego_motions,
                gaps,
                aspeeds,
                constraints=constraints,
            )
            for k in np.flatnonzero(found):
                row = int(active[k])
                h = lo + int(hit[k])
                results[row] = LatencyResult(
                    latency=float(grid.latencies[h]),
                    check_time=float(check_times[k]),
                    iterations=int(
                        miss_prefix[tick_indices[row], h] + scanned[k]
                    ),
                )
            active = active[~found]
        for row in active:
            results[int(row)] = LatencyResult(
                latency=None,
                check_time=None,
                iterations=int(miss_prefix[tick_indices[row], -1]),
            )
        return results

    def _solve_rows_grouped(
        self,
        grid: TraceGrid,
        lo: int,
        hi: int,
        rows: np.ndarray,
        tick_indices: np.ndarray,
        ego_motions: Sequence[EgoMotion],
        gaps: np.ndarray,
        aspeeds: np.ndarray,
        constraints: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidates ``[lo, hi)`` for the active ``rows`` — the row kernel.

        Rows are grouped by tick (a stable sort; rows are independent,
        so input order does not matter). Each group scans the master
        grid by broadcasting its ``(G, S, T)`` samples against its
        tick's own ``(S, T)`` ego profile, built once and trimmed to
        that tick's longest candidate scan, and keeps only the first
        violation and first candidate index per (row, candidate). A
        group wider than the ``_ROWS_CHUNK_ELEMENTS`` workspace scans
        in chunks. The ``t_r`` insertion bookkeeping and the hit
        selection then run once over all rows as ``(R, S)`` arrays.
        ``gaps``/``aspeeds`` are the full ``(R, T + L)`` sample arrays
        of :meth:`solve_rows`; ``constraints`` likewise carries
        full-length per-row c1/c2 arrays, broadcast as columns so each
        row multiplies by its own scalar. Returns ``(found, hit,
        check_times, scanned)`` aligned with ``rows``: whether some
        candidate in the slice is feasible, the first feasible
        slice-local candidate index, its check time, and how many
        merged grid points that candidate's scan consumed.
        """
        cap = self.params.ego_speed_cap
        n_times = grid.times.size
        n_slice = hi - lo
        reactions = grid.reactions[lo:hi]
        if constraints is None:
            c1: float | np.ndarray = self.params.c1
            c2: float | np.ndarray = self.params.c2
        else:
            c1 = constraints[0][rows]
            c2 = constraints[1][rows]

        # Per (row, candidate): the first master-grid violation and
        # candidate index, and the ego profile at the candidate's t_r.
        fv_m = np.empty((rows.size, n_slice), dtype=np.int64)
        cf_m = np.empty((rows.size, n_slice), dtype=np.int64)
        dist_r = np.empty((rows.size, n_slice))
        speed_r = np.empty((rows.size, n_slice))

        ticks = tick_indices[rows]
        order = np.argsort(ticks, kind="stable")
        sorted_ticks = ticks[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_ticks[1:] != sorted_ticks[:-1]))
        )
        bounds = np.append(starts, sorted_ticks.size)
        for g in range(starts.size):
            n = int(sorted_ticks[bounds[g]])
            lengths = grid.lengths[n, lo:hi]
            t_cap = int(lengths.max())
            ego = ego_motions[n]
            anchors = _reaction_anchors(ego, reactions, cap)
            # One profile over the scan prefix and the t_r instants:
            # the trailing (S, S) block's diagonal is each candidate's
            # profile at its own t_r, elementwise the same arithmetic
            # as a separate (S,) evaluation.
            dist, speed = ego_profile_arrays(
                ego,
                reactions[:, None],
                np.concatenate([grid.times[:t_cap], reactions]),
                cap,
                anchors=(anchors[0][:, None], anchors[1][:, None]),
            )
            group = order[bounds[g] : bounds[g + 1]]
            dist_r[group] = dist[:, t_cap:].diagonal()
            speed_r[group] = speed[:, t_cap:].diagonal()
            dist = dist[:, :t_cap]
            speed = speed[:, :t_cap]
            # Row-independent per-tick masks: the per-candidate prefix
            # lengths and the scan windows.
            valid = np.arange(t_cap)[None, :] < lengths[:, None]
            window = grid.times[None, :t_cap] >= reactions[:, None] - _EPS
            wv = window & valid

            # Bound the (G, S, T) workspace for pathologically wide
            # groups; ordinary campaign stacks fit in one pass.
            step = max(1, int(_ROWS_CHUNK_ELEMENTS / (n_slice * t_cap)))
            for begin in range(0, group.size, step):
                sel = group[begin : begin + step]
                if constraints is None:
                    c1_m, c2_m = c1, c2
                else:
                    c1_m = c1[sel][:, None, None]
                    c2_m = c2[sel][:, None, None]
                gaps_m = gaps[rows[sel], None, :t_cap]
                va_m = aspeeds[rows[sel], None, :t_cap]
                d_ok = dist[None] <= c1_m * gaps_m + _EPS
                v_ok = speed[None] <= c2_m * va_m + _EPS
                fv_m[sel] = _first_true(~d_ok & valid[None])
                cf_m[sel] = _first_true(d_ok & v_ok & wv[None])

        # The t_r merge, for every row at once: shift master indices
        # past each candidate's inserted t_r slot, then let the t_r
        # sample itself violate or qualify at that slot.
        if constraints is not None:
            c1 = c1[:, None]
            c2 = c2[:, None]
        ins = grid.inserted[ticks, lo:hi]  # (R, S)
        pos = grid.insert_at[None, lo:hi]
        first_violation = np.where(
            fv_m != _NO_INDEX, fv_m + (ins & (fv_m >= pos)), _NO_INDEX
        )
        first_candidate = np.where(
            cf_m != _NO_INDEX, cf_m + (ins & (cf_m >= pos)), _NO_INDEX
        )
        gaps_r = gaps[rows, n_times + lo : n_times + hi]
        va_r = aspeeds[rows, n_times + lo : n_times + hi]
        d_ok_r = dist_r <= c1 * gaps_r + _EPS
        v_ok_r = speed_r <= c2 * va_r + _EPS
        first_violation = np.minimum(
            first_violation, np.where(ins & ~d_ok_r, pos, _NO_INDEX)
        )
        first_candidate = np.minimum(
            first_candidate, np.where(ins & d_ok_r & v_ok_r, pos, _NO_INDEX)
        )

        feasible = first_candidate < _NO_INDEX
        if self.strict:
            feasible &= first_candidate < first_violation

        found = feasible.any(axis=-1)
        hit = feasible.argmax(axis=-1)
        at = np.arange(rows.size)
        best = first_candidate[at, hit]
        ins_h = ins[at, hit]
        pos_h = grid.insert_at[lo + hit]
        from_reaction = ins_h & (best == pos_h)
        master_index = best - (ins_h & (best > pos_h))
        # Rows with nothing found carry placeholder values; solve_rows
        # reads only the found ones.
        check_times = np.where(
            from_reaction,
            grid.reactions[lo + hit],
            grid.times[np.minimum(master_index, n_times - 1)],
        )
        return found, hit, check_times, best + 1
