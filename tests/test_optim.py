import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ermrl import optim


def brute_force_match(L):
    """Enumerate all injections rows -> cols; best objective and the first
    maximizer in lexicographic order."""
    n, m = L.shape
    best_obj, best = -np.inf, None
    for cols in itertools.permutations(range(m), n):
        obj = sum(L[i, c] for i, c in enumerate(cols))
        if obj > best_obj + 1e-12 or (abs(obj - best_obj) <= 1e-12 and cols < best):
            best_obj, best = obj, cols
    return dict(enumerate(best)), best_obj


@st.composite
def likelihood_matrices(draw):
    """Up to 10 x 10: quantized entries (exact ties everywhere) or softmax rows."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(n, 10))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                        dtype=float).reshape(n, m) / 4.0
    z = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n * m, max_size=n * m)))
    e = np.exp(z.reshape(n, m))
    return e / e.sum(axis=1, keepdims=True)


class TestHungarianDuals:
    def test_empty_problem(self):
        assert optim._hungarian_min(np.zeros((0, 3))) == []


class TestMaxWeightMatch:
    def test_identity(self):
        assign = optim.max_weight_match(np.eye(3))
        assert assign == {0: 0, 1: 1, 2: 2}

    def test_two_by_two(self):
        L = np.array([[0.9, 0.1], [0.8, 0.2]])
        assign = optim.max_weight_match(L)
        assert assign == {0: 0, 1: 1}
        assert sum(L[v, d] for v, d in assign.items()) == pytest.approx(1.1)

    def test_rectangular_dominant_column(self):
        L = np.array([[0.4, 0.1, 0.5], [0.3, 0.2, 0.5]])
        assign = optim.max_weight_match(L)
        expected, _ = brute_force_match(L)
        assert assign == expected
        assert 2 in assign.values()

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 7))
            L = rng.uniform(0, 1, size=(n, m))
            assign = optim.max_weight_match(L)
            _, best_obj = brute_force_match(L)
            got = sum(L[v, d] for v, d in assign.items())
            assert got == pytest.approx(best_obj, abs=1e-9)
            assert len(set(assign.values())) == n

    def test_lexicographic_against_bruteforce_on_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 5))
            # quantized entries force plenty of exact ties
            L = rng.integers(0, 3, size=(n, m)) / 4.0
            assign = optim.max_weight_match(L)
            _, best_obj = brute_force_match(L)
            assert sum(L[v, d] for v, d in assign.items()) == pytest.approx(best_obj, abs=1e-9)
            assert sorted(assign) == list(range(n))
            assert len(set(assign.values())) == n

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(optim.InfeasibleError):
            optim.max_weight_match(np.ones((3, 2)) / 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(likelihood_matrices())
    def test_optimal_against_scipy(self, L):
        assign = optim.max_weight_match(L)
        rows, cols = linear_sum_assignment(L, maximize=True)
        assert sorted(assign) == list(range(L.shape[0]))
        assert len(set(assign.values())) == L.shape[0]
        got = sum(L[v, d] for v, d in assign.items())
        assert got == pytest.approx(float(L[rows, cols].sum()), abs=1e-9)

    def test_one_solve_on_ties(self, monkeypatch):
        # four maximizers (column 2 plus either tied column): one solve, no search
        L = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5]])
        solve = optim._hungarian_min
        calls = []
        monkeypatch.setattr(optim, "_hungarian_min",
                            lambda cost: calls.append(cost.shape) or solve(cost))
        assign = optim.max_weight_match(L)
        assert calls == [(2, 3)]
        assert sorted(assign.values()) in ([0, 2], [1, 2])


class TestNormalizeHlp:
    def test_uniform(self):
        assert optim.normalize_hlp(np.array([1.0, 1.0])) == pytest.approx([1 / 3] * 3)

    def test_single_region(self):
        assert optim.normalize_hlp(np.array([])) == pytest.approx([1.0])

    def test_arithmetic(self):
        assert optim.normalize_hlp(np.array([3.0, 1.0])) == pytest.approx([0.6, 0.2, 0.2])

    def test_sum_and_order(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 5, size=int(rng.integers(0, 6)))
            p = optim.normalize_hlp(a)
            assert p.sum() == pytest.approx(1.0)
            order = np.argsort(a, kind="stable")
            assert np.all(np.diff(p[:-1][order]) >= -1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            optim.normalize_hlp(np.array([-0.1, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            optim.normalize_hlp(np.array([bad, 1.0]))


def webster_oracle(p, n_responders, caps):
    """Straight-line capped Sainte-Laguë apportionment (dicts, no numpy): each
    responder to the open region of largest p / (count + 0.5), ties to the
    lowest index."""
    regions = list(range(len(p)))
    counts = {g: 0 for g in regions}
    for _ in range(n_responders):
        best_g, best_v = None, None
        for g in regions:
            if counts[g] < caps[g]:
                val = p[g] / (counts[g] + 0.5)
                if best_v is None or val > best_v:
                    best_g, best_v = g, val
        counts[best_g] += 1
    return [counts[g] for g in regions]


def meets_divisor_inequality(p, counts, caps):
    """max over open g of p[g]/(c[g]+0.5) <= min over filled h of p[h]/(c[h]-0.5)."""
    top = max((p[g] / (c + 0.5) for g, c in enumerate(counts) if c < caps[g]), default=-math.inf)
    low = min((p[h] / (c - 0.5) for h, c in enumerate(counts) if c > 0), default=math.inf)
    return top <= low


def capped_allocations(n_responders, caps):
    """Every vector of counts within caps that sums to n_responders."""
    for counts in itertools.product(*(range(c + 1) for c in caps)):
        if sum(counts) == n_responders:
            yield list(counts)


def random_split(rng, r, kind):
    """Proportions over r regions: continuous (uniform draws), quantized (many
    equal shares and exact zeros) or Dirichlet."""
    if kind == "continuous":
        raw = rng.uniform(0, 1, size=r)
    elif kind == "quantized":
        raw = rng.integers(0, 4, size=r).astype(float)
        raw[int(rng.integers(r))] += 1.0
    else:
        return rng.dirichlet(np.full(r, float(rng.choice([0.2, 1.0, 5.0]))))
    return raw / raw.sum()


class TestGreedyRedistribute:
    def test_even_split(self):
        out = optim.greedy_redistribute(np.array([0.5, 0.5]), 4, [10, 10])
        assert list(out) == [2, 2]

    def test_remainder_goes_to_largest_shortfall(self):
        out = optim.greedy_redistribute(np.array([0.55, 0.45]), 5, [10, 10])
        assert list(out) == [3, 2]

    def test_cap_branch(self):
        out = optim.greedy_redistribute(np.array([0.8, 0.2]), 6, [2, 10])
        assert list(out) == [2, 4]

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            r = int(rng.integers(1, 7))
            raw = rng.uniform(0, 1, size=r)
            if raw.sum() == 0:
                raw[0] = 1.0
            p = raw / raw.sum()
            caps = [int(c) for c in rng.integers(1, 8, size=r)]
            v = int(rng.integers(0, sum(caps) + 1))
            got = optim.greedy_redistribute(p, v, caps)
            assert list(got) == webster_oracle(p.tolist(), v, caps)

    def test_fuzz_sum_and_caps(self):
        rng = np.random.default_rng(123)
        for _ in range(2000):
            r = int(rng.integers(1, 9))
            raw = rng.uniform(0, 1, size=r) + 1e-9
            p = raw / raw.sum()
            caps = [int(c) for c in rng.integers(1, 10, size=r)]
            v = int(rng.integers(0, sum(caps) + 1))
            out = optim.greedy_redistribute(p, v, caps)
            assert out.sum() == v
            assert np.all(out <= caps)
            assert np.all(out >= 0)

    def test_infeasible_rejected(self):
        with pytest.raises(optim.InfeasibleError):
            optim.greedy_redistribute(np.array([0.5, 0.5]), 7, [3, 3])

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_proportions_rejected(self, p):
        with pytest.raises(ValueError):
            optim.greedy_redistribute(np.array(p), 4, [10, 10])

    def test_negative_fleet_rejected(self):
        with pytest.raises(ValueError):
            optim.greedy_redistribute(np.array([0.5, 0.5]), -1, [10, 10])

    @pytest.mark.parametrize("kind", ["uniform", "quantized", "dirichlet"])
    def test_matches_webster_oracle_at_every_fleet(self, kind):
        rng = np.random.default_rng({"uniform": 0, "quantized": 1, "dirichlet": 2}[kind])
        for r in range(1, 13):
            for _ in range(25):
                p = np.full(r, 1.0 / r) if kind == "uniform" else random_split(rng, r, kind)
                caps = [int(c) for c in rng.integers(0, 10, size=r)]
                for v in range(sum(caps) + 1):
                    got = optim.greedy_redistribute(p, v, caps)
                    assert got.dtype == int
                    assert got.tolist() == webster_oracle(p.tolist(), v, caps), (p.tolist(), v, caps)
                    assert meets_divisor_inequality(p.tolist(), got.tolist(), caps)

    @pytest.mark.parametrize("kind", ["continuous", "quantized"])
    def test_only_allocation_meeting_the_divisor_inequality(self, kind):
        # on continuous proportions no two priorities tie, so exactly one
        # capped allocation meets the inequality; with ties the output is one of them
        rng = np.random.default_rng(5)
        for _ in range(300):
            r = int(rng.integers(1, 5))
            p = random_split(rng, r, kind).tolist()
            caps = [int(c) for c in rng.integers(0, 5, size=r)]
            for v in range(min(sum(caps), 8) + 1):
                got = optim.greedy_redistribute(np.array(p), v, caps).tolist()
                meeting = [c for c in capped_allocations(v, caps)
                           if meets_divisor_inequality(p, c, caps)]
                if kind == "continuous":
                    assert meeting == [got], (p, v, caps)
                else:
                    assert got in meeting, (p, v, caps)

    def test_monotone_in_the_fleet(self):
        rng = np.random.default_rng(31)
        for case in range(300):
            r = int(rng.integers(1, 9))
            p = random_split(rng, r, ["continuous", "quantized", "dirichlet"][case % 3])
            caps = [int(c) for c in rng.integers(0, 10, size=r)]
            prev = optim.greedy_redistribute(p, 0, caps)
            for v in range(1, sum(caps) + 1):
                out = optim.greedy_redistribute(p, v, caps)
                assert np.all(out >= prev), (p.tolist(), v, caps)
                prev = out


def brute_force_moves(counts_prev, counts_new, resp_regions, resp_depots, region_depots, phi):
    """Enumerate all feasible move sets; return min total cost."""
    leaving = [g for g in counts_prev if counts_prev[g] > counts_new[g]]
    arriving = [g for g in counts_prev if counts_prev[g] < counts_new[g]]
    occupied = set(resp_depots.values())
    open_by_region = {g: [d for d in region_depots[g] if d not in occupied] for g in arriving}
    per_region_choices = []
    for g in leaving:
        members = sorted(v for v, rg in resp_regions.items() if rg == g)
        per_region_choices.append(list(itertools.combinations(members, counts_prev[g] - counts_new[g])))
    open_depots = [d for g in arriving for d in open_by_region[g]]
    quota = {g: counts_new[g] - counts_prev[g] for g in arriving}
    depot_region = {d: g for g in arriving for d in open_by_region[g]}
    best = np.inf
    for chosen in itertools.product(*per_region_choices):
        movers = [v for grp in chosen for v in grp]
        for depots in itertools.permutations(open_depots, len(movers)):
            used = {}
            for g in arriving:
                used[g] = 0
            for d in depots:
                used[depot_region[d]] += 1
            if any(used[g] != quota[g] for g in arriving):
                continue
            cost = sum(phi(v, d) for v, d in zip(movers, depots))
            best = min(best, cost)
    return best


def assert_meets_counts(moves, counts_prev, counts_new, resp_regions, resp_depots,
                        region_depots):
    """Each move targets a free depot once, and the moves turn one count
    vector into the other."""
    depot_region = {d: g for g, ds in region_depots.items() for d in ds}
    counts = dict(counts_prev)
    for v, d in moves.items():
        assert d not in resp_depots.values()
        counts[resp_regions[v]] -= 1
        counts[depot_region[d]] += 1
    assert counts == counts_new
    assert len(set(moves.values())) == len(moves)


@st.composite
def transfer_cases(draw):
    """Small cities with a few net moves between regions and costs from
    {1, 2, 3}, so that equal-cost move sets are common."""
    caps = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    prev = [draw(st.integers(0, c)) for c in caps]
    new = list(prev)
    for _ in range(draw(st.integers(1, 4))):
        steps = [(a, b) for a in range(len(caps)) for b in range(len(caps))
                 if a != b and new[a] > 0 and new[b] < caps[b]]
        if steps:
            a, b = draw(st.sampled_from(steps))
            new[a] -= 1
            new[b] += 1
    region_depots, resp_regions, resp_depots = {}, {}, {}
    for g, c in enumerate(caps):
        region_depots[g] = list(range(sum(caps[:g]), sum(caps[:g]) + c))
        for d in region_depots[g][:prev[g]]:
            resp_regions[len(resp_regions)] = g
            resp_depots[len(resp_depots)] = d
    cost = {(v, d): draw(st.sampled_from([1.0, 2.0, 3.0]))
            for v in resp_regions for d in range(sum(caps))}
    return (dict(enumerate(prev)), dict(enumerate(new)), resp_regions, resp_depots,
            region_depots, cost)


class TestMinCostFlowAssign:
    def test_single_mover(self):
        moves = optim.min_cost_flow_assign(
            {0: 1, 1: 0}, {0: 0, 1: 1},
            {5: 0}, {5: 10}, {0: [10], 1: [11]},
            lambda v, d: 123.0,
        )
        assert moves == {5: 11}

    def test_two_movers_pick_cheaper_matching(self):
        phi_table = {(0, 10): 100.0, (0, 11): 300.0, (1, 10): 200.0, (1, 11): 250.0}
        moves = optim.min_cost_flow_assign(
            {0: 2, 1: 0}, {0: 0, 1: 2},
            {0: 0, 1: 0}, {0: 5, 1: 6}, {0: [5, 6], 1: [10, 11]},
            lambda v, d: phi_table[(v, d)],
        )
        total = sum(phi_table[(v, d)] for v, d in moves.items())
        assert total == pytest.approx(350.0)
        assert moves == {0: 10, 1: 11}

    def test_no_change_empty(self):
        moves = optim.min_cost_flow_assign(
            {0: 1, 1: 1}, {0: 1, 1: 1},
            {0: 0, 1: 1}, {0: 5, 1: 10}, {0: [5], 1: [10]},
            lambda v, d: 1.0,
        )
        assert moves == {}

    def test_imbalance_rejected(self):
        with pytest.raises(optim.InfeasibleError):
            optim.min_cost_flow_assign(
                {0: 2, 1: 0}, {0: 0, 1: 1},
                {0: 0, 1: 0}, {0: 5, 1: 6}, {0: [5, 6], 1: [10, 11]},
                lambda v, d: 1.0,
            )

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n_regions = int(rng.integers(2, 5))
            caps = rng.integers(1, 4, size=n_regions)
            region_depots = {}
            nid = 0
            for g in range(n_regions):
                region_depots[g] = list(range(nid, nid + int(caps[g])))
                nid += int(caps[g])
            total_v = int(rng.integers(1, min(int(caps.sum()), 6) + 1))
            prev = optim.greedy_redistribute(
                np.ones(n_regions) / n_regions, total_v, list(caps))
            raw = rng.uniform(0.05, 1, size=n_regions)
            new = optim.greedy_redistribute(raw / raw.sum(), total_v, list(caps))
            if int(np.abs(prev - new).sum()) // 2 > 4:
                continue
            resp_regions, resp_depots = {}, {}
            vid = 0
            for g in range(n_regions):
                for slot in range(int(prev[g])):
                    resp_regions[vid] = g
                    resp_depots[vid] = region_depots[g][slot]
                    vid += 1
            cost = {(v, d): float(rng.uniform(1, 100))
                    for v in resp_regions for d in range(nid)}
            phi = lambda v, d: cost[(v, d)]
            counts_prev = {g: int(prev[g]) for g in range(n_regions)}
            counts_new = {g: int(new[g]) for g in range(n_regions)}
            moves = optim.min_cost_flow_assign(
                counts_prev, counts_new, resp_regions, resp_depots, region_depots, phi)
            got = sum(phi(v, d) for v, d in moves.items())
            assert_meets_counts(moves, counts_prev, counts_new, resp_regions,
                                resp_depots, region_depots)
            if moves:
                best = brute_force_moves(
                    counts_prev, counts_new, resp_regions, resp_depots, region_depots, phi)
                assert got == pytest.approx(best, abs=1e-9)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases())
    def test_matches_bruteforce_with_tied_costs(self, case):
        counts_prev, counts_new, resp_regions, resp_depots, region_depots, cost = case
        phi = lambda v, d: cost[(v, d)]
        moves = optim.min_cost_flow_assign(
            counts_prev, counts_new, resp_regions, resp_depots, region_depots, phi)
        assert_meets_counts(moves, counts_prev, counts_new, resp_regions,
                            resp_depots, region_depots)
        best = brute_force_moves(
            counts_prev, counts_new, resp_regions, resp_depots, region_depots, phi)
        assert sum(phi(v, d) for v, d in moves.items()) == best

    def test_growing_region_short_of_open_depots_rejected(self):
        # region 1 must gain two responders but has one open depot
        with pytest.raises(optim.InfeasibleError):
            optim.min_cost_flow_assign(
                {0: 2, 1: 1}, {0: 0, 1: 3},
                {0: 0, 1: 0, 2: 1}, {0: 5, 1: 6, 2: 10}, {0: [5, 6], 1: [10, 11]},
                lambda v, d: 1.0,
            )

    def test_shrinking_region_short_of_responders_rejected(self):
        # the counts say region 0 holds two responders; it holds one
        with pytest.raises(optim.InfeasibleError):
            optim.min_cost_flow_assign(
                {0: 2, 1: 0}, {0: 0, 1: 2},
                {0: 0}, {0: 5}, {0: [5, 6], 1: [10, 11]},
                lambda v, d: 1.0,
            )
