"""Symmetric-body nets: step families, profiles, cells, certificates."""
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from _oracles import (exact_block_norms, full_sandwich, joined_net_text, level_count_loop,
                      level_sum_every_level, step_block_vectors, step_norm, step_widths_loop)
from bmbodies.randmodel import substream
from bmbodies.symnet import (
    SymmetricBody,
    body_from_tag,
    build_net,
    certify_pair,
    enumerate_steps,
    level_count,
    log_profile,
    lorentz_body,
    lp_body,
    net_lines,
    profile_cell,
    SymmetricNet,
    tau_for_separation,
    top_k_body,
)


def test_level_count_is_least_admissible():
    # least positive L with n * tau^-L < 1 - 1/tau
    for n, tau in ((12, 2.0), (5, 1.5), (64, 2.0), (3, 3.0)):
        L = level_count(n, tau)
        assert n * tau ** (-L) < 1 - 1 / tau
        assert L == 1 or not n * tau ** (-(L - 1)) < 1 - 1 / tau
    assert level_count(12, 2.0) == 5


def test_level_count_exact_on_boundaries():
    # n * tau^-L == 1 - 1/tau must NOT count as admissible: with tau=2
    # and n = 2^(L-1) the candidate L hits equality exactly
    assert level_count(8, 2.0) == 5  # 8/16 == 1/2 exactly, so L=4 is refused
    assert level_count(7, 2.0) == 4


def test_step_family_count_and_cap():
    fam = enumerate_steps(3, 2)
    assert np.asarray(fam.maps).shape == (6, 2)  # C(3+2-1, 2)
    fam2 = enumerate_steps(4, 3)
    assert np.asarray(fam2.maps).shape == (20, 3)
    with pytest.raises(ValueError):
        enumerate_steps(40, 12, cap=10**6)


def test_step_maps_match_the_tuple_list():
    for n, levels in ((1, 1), (1, 7), (3, 2), (5, 4), (12, 3), (6, 9)):
        ref = np.array(list(combinations_with_replacement(range(1, n + 1), levels)))
        maps = enumerate_steps(n, levels).maps
        assert maps.dtype == np.int64 and maps.shape == ref.shape
        assert np.array_equal(maps, ref)
    with pytest.raises(ValueError, match="step family has 20 members, above the cap 19"):
        enumerate_steps(4, 3, cap=19)
    assert enumerate_steps(4, 3, cap=20).count == 20
    assert enumerate_steps(4, 3, cap=None).count == 20


def test_one_coordinate_family_is_built_directly():
    for n, levels in ((1, 1), (1, 2), (1, 7), (1, 300), (3, 5)):
        ref = step_widths_loop(n, levels)
        widths = enumerate_steps(n, levels).widths
        assert widths.dtype == ref.dtype and np.array_equal(widths, ref)
    # the level count of tau = 1.0001 at n = 1, which the level-by-level
    # growth took seconds on
    start = time.perf_counter()
    fam = enumerate_steps(1, 92_110)
    assert time.perf_counter() - start < 0.5
    assert fam.count == 1 and fam.widths.shape == (92_110, 1)


def test_level_sums_skip_zero_levels_without_moving_a_bit():
    # n = 1 at tau = 1.0001 has 92,110 levels, all but the first of zero
    # width; (12, 1.5) is the net's benchmark family
    for n, tau in ((1, 1.0001), (12, 1.5), (5, 1.2)):
        fam = enumerate_steps(n, level_count(n, tau))
        table = np.array([tau ** (-lvl) for lvl in range(1, fam.levels + 1)])
        for coef, weights in ((table, None), (np.power(table / table[0], 2.5), None),
                              (table, np.arange(n) < 3), (table, np.linspace(1.0, 0.2, n))):
            got = fam.level_sum(coef, weights)
            assert np.array_equal(got, level_sum_every_level(fam, coef, weights)), (n, tau)
    # at n = 1 only level 1 has a width, so it is the only coefficient read
    fam = enumerate_steps(1, level_count(1, 1.0001))
    table = np.ones(fam.levels)
    for weights in (None, [0.5]):
        coef = _CountedReads(table)
        assert np.array_equal(fam.level_sum(coef, weights),
                              level_sum_every_level(fam, table, weights))
        assert coef.reads == [0]


class _CountedReads:
    """A coefficient sequence that notes which levels are read."""

    def __init__(self, values):
        self.values, self.reads = values, []

    def __getitem__(self, lvl):
        self.reads.append(int(lvl))
        return self.values[lvl]


def test_lp_norms_match_the_out_of_place_expression():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 6)) * np.exp(rng.normal(scale=3.0, size=(200, 1)))
    x[::7] = 0.0  # all-zero rows take the masked branch
    for p in (1.25, 3.5, 40.0):
        for rows in (x, x[1:7]):  # with and without zero rows
            before = rows.copy()
            a = np.abs(rows)
            m = a.max(axis=1)
            ref = np.zeros(a.shape[0])
            pos = m > 0.0
            ref[pos] = m[pos] * ((a[pos] / m[pos, None]) ** p).sum(axis=1) ** (1.0 / p)
            got = lp_body(6, p).norm_many(rows)
            assert np.array_equal(got, ref)
            assert np.array_equal(rows, before)  # the caller's rows are untouched
    assert np.array_equal(lp_body(6, 3.5).norm_many(np.zeros((3, 6))), np.zeros(3))


# the width formulas sum levels, not coordinates, so they agree with the
# references to a bound on the rounding of levels + 2 float operations
_FAMILY_CASES = ((1, 1.1), (4, 2.0), (7, 1.5), (10, 2.0), (12, 3.0))


def test_family_norms_match_the_exact_norms():
    for n, tau in _FAMILY_CASES:
        fam = enumerate_steps(n, level_count(n, tau))
        bodies = [lp_body(n, 1.0), lp_body(n, 2.0), top_k_body(n, max(1, n // 2)),
                  lorentz_body(n, np.linspace(1.0, 0.2, n)),
                  lorentz_body(n, np.geomspace(1.0, 1e-3, n))]
        for body in bodies:
            got = body.family_norms(fam, tau)
            assert got.shape == (fam.count,)
            for value, exact in zip(got.tolist(), exact_block_norms(body, fam.maps, tau)):
                ulps = abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))
                assert ulps <= fam.levels + 2, (body.tag(), n, tau, float(ulps))
    with pytest.raises(ValueError):
        lp_body(3, 2.0).family_norms(enumerate_steps(4, 2), 2.0)


def test_family_norms_match_norm_many_on_the_mask_loop_block_vectors():
    for n, tau in _FAMILY_CASES + ((12, 1.7),):
        fam = enumerate_steps(n, level_count(n, tau))
        rows = step_block_vectors(fam.maps, n, tau)
        for p in (1.25, 3.5, 40.0, math.inf):
            got = lp_body(n, p).family_norms(fam, tau)
            ref = lp_body(n, p).norm_many(rows)
            assert np.all(np.abs(got - ref) <= (fam.levels + 2) * np.spacing(ref)), (p, n, tau)


def test_family_norms_put_an_exact_edge_on_its_edge():
    # at n = 12, tau = 3 the p = 1 block vector of (2, 2, 11) holds 2/3
    # on two coordinates and 1/27 on nine: norm exactly 1 = tau^0, which
    # floor semantics place in cell 2
    n, tau = 12, 3.0
    fam = enumerate_steps(n, level_count(n, tau))
    j = fam.maps.tolist().index([2, 2, 11])
    assert lp_body(n, 1.0).family_norms(fam, tau)[j] == 1.0
    assert profile_cell(log_profile(lp_body(n, 1.0), fam, tau), tau)[j] == 2
    net = build_net([lp_body(n, 1.0)], tau)
    assert net.cells[0, j] == 2


def test_tau_for_separation_is_a_twelfth_root():
    assert math.isclose(tau_for_separation(4096.0), 2.0, rel_tol=1e-12)
    assert tau_for_separation(2.0) > 1.0


def test_body_tags_round_trip():
    for body in (lp_body(6, 1.25), lp_body(6, math.inf), top_k_body(6, 3), lorentz_body(6, np.geomspace(1, 0.1, 6))):
        back = body_from_tag(6, body.tag())
        assert back.kind == body.kind
        assert back.dim == body.dim
        x = substream(1, "tag").normal(size=6)
        assert math.isclose(back.norm(x), body.norm(x), rel_tol=1e-12)
    with pytest.raises(ValueError):
        body_from_tag(6, "mystery z=1")


def test_norms_of_known_bodies():
    x = np.array([3.0, -4.0, 0.0, 1.0])
    assert math.isclose(lp_body(4, 1.0).norm(x), 8.0, rel_tol=1e-12)
    assert math.isclose(lp_body(4, 2.0).norm(x), math.sqrt(26.0), rel_tol=1e-12)
    assert math.isclose(lp_body(4, math.inf).norm(x), 4.0, rel_tol=1e-12)
    assert math.isclose(top_k_body(4, 2).norm(x), 7.0, rel_tol=1e-12)
    assert math.isclose(
        lorentz_body(4, (1.0, 0.5, 0.25, 0.125)).norm(x), 4.0 + 1.5 + 0.25 + 0.0, rel_tol=1e-12
    )


def test_profiles_and_cells_are_deterministic():
    fam = enumerate_steps(4, 3)
    tau = 2.0
    body = lp_body(4, 1.5)
    p1 = log_profile(body, fam, tau)
    p2 = log_profile(body, fam, tau)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (np.asarray(fam.maps).shape[0],)
    assert np.array_equal(profile_cell(p1, tau), profile_cell(p2, tau))
    # every step norm is positive and the profile is its log
    s0 = step_norm(body, fam.maps[0], tau)
    assert s0 > 0
    assert math.isclose(p1[0], math.log(s0), rel_tol=1e-12)


def test_profile_cell_floor_edges():
    tau = 2.0
    pitch = math.log(tau)
    anchor = -math.log(tau**2)
    prof = np.array([anchor, anchor + pitch, anchor + 1.5 * pitch])
    assert profile_cell(prof, tau).tolist() == [0, 1, 1]


def test_profile_cell_matches_the_generator_loop():
    rng = np.random.default_rng(8)
    for tau in (1.5, 2.0, 3.7):
        lt = math.log(tau)
        # half the entries sit exactly on cell edges, where floor decides
        edges = (rng.integers(-40, 40, size=500) - 2) * lt
        prof = np.where(rng.random(500) < 0.5, edges, rng.normal(scale=20.0, size=500))
        ref = [int(i) for i in np.floor((prof + 2.0 * lt) / lt)]
        cell = profile_cell(prof, tau)
        assert cell.dtype == np.int64 and cell.tolist() == ref


def test_profile_cell_refuses_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            profile_cell(np.array([0.0, bad, 1.0]), 2.0)


def test_build_net_groups_equal_profiles():
    tau = 2.0
    bodies = [lp_body(3, 1.0), lp_body(3, 2.0), lp_body(3, math.inf), lp_body(3, 1.0)]
    net = build_net(bodies, tau)
    assert net.n == 3 and net.tau == tau
    assert net.levels == level_count(3, tau)
    # members partition the body list
    all_members = sorted(i for ids in net.members.values() for i in ids)
    assert all_members == [0, 1, 2, 3]
    # duplicate bodies share a cell, and its representative is the first
    cell_of_first = next(c for c, ids in net.members.items() if 0 in ids)
    assert 3 in net.members[cell_of_first]
    # cell_count <= base^profiles, compared through its log log
    assert net.cell_count == len(net.members)
    assert math.log(net.cell_count) <= math.exp(net.log_log_cell_bound)
    reps = {c: rep for c, rep in net.cell_reps}
    assert reps[cell_of_first].param == 1.0


def test_net_text_round_trip():
    net = build_net([lp_body(3, p) for p in (1.0, 2.0, np.inf)], 2.0)
    lines = "".join(net_lines(net)).splitlines()
    assert lines[0] == (f"symnet n=3 tau=2 levels={net.levels} "
                        f"profiles={net.profile_count} cells={net.cell_count}")
    assert len(lines) == 1 + net.cell_count
    for line, (cell, body) in zip(lines[1:], net.cell_reps):
        assert line.split()[1] == ",".join(str(i) for i in net.cells[cell])
        assert body_from_tag(3, line.split(None, 3)[3]) == body


def test_net_log_log_fields_match_closed_forms():
    # the bench's net config: 8 = floor(log 12 / log 1.5) + 2 grid values
    # per profile entry, over the 167,960 maps of its step family
    n, tau, profiles = 12, 1.5, 167960
    net = SymmetricNet(n=n, tau=tau, levels=level_count(n, tau), profile_count=profiles,
                       cell_reps=[], cells=np.zeros((0, profiles), dtype=np.int8), members={})
    assert math.isclose(net.log_log_cell_bound,
                        math.log(profiles) + math.log(math.log(8)), rel_tol=1e-12)
    assert round(net.log_log_cell_bound, 2) == 12.76
    built = build_net([lp_body(3, 2.0)], 2.0)
    assert math.isclose(built.log_log_cell_bound,
                        math.log(built.profile_count) + math.log(math.log(3)), rel_tol=1e-12)


def test_net_text_formats_negative_and_multi_digit_indices():
    cells = [(-12, 0, 7, 105, -3), (3, 3, 3, 3, 3), (-1, -100, 9, 10, 99)]
    tau = 2.0
    net = SymmetricNet(
        n=3, tau=tau, levels=level_count(3, tau), profile_count=5,
        cell_reps=[(c, lp_body(3, p)) for c, p in enumerate((1.0, 2.5, math.inf))],
        cells=np.array(cells), members={c: [] for c in range(3)},
    )
    lines = "".join(net_lines(net)).splitlines()
    assert len(lines) == 1 + len(cells)
    for line, cell, (_, body) in zip(lines[1:], cells, net.cell_reps):
        assert line == f"cell {','.join(str(i) for i in cell)} rep {body.tag()}"


def _hand_net(cells, dtype):
    cells = np.array(cells, dtype=dtype)
    tau = 2.0
    return SymmetricNet(
        n=3, tau=tau, levels=level_count(3, tau), profile_count=cells.shape[1],
        cell_reps=[(c, lp_body(3, 1.0 + c)) for c in range(cells.shape[0])],
        cells=cells, members={c: [] for c in range(cells.shape[0])},
    )


def test_net_lines_match_the_joined_formatter_on_the_default_net():
    bodies = [lp_body(12, 1 + 0.25 * i) for i in range(13)] + [lp_body(12, math.inf)]
    net = build_net(bodies, 1.5)
    assert net.cells.dtype == np.int8 and net.cell_count == 14
    assert "".join(net_lines(net)) == joined_net_text(net)
    empty = _hand_net(np.zeros((0, 5)), np.int8)
    assert "".join(net_lines(empty)) == joined_net_text(empty)


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_net_lines_match_the_joined_formatter_on_hand_built_cells(dtype):
    # -3..12 gives tokens of two, three and four bytes ("-3,", "12,")
    # side by side; int16 also holds indices of four and five digits
    cells = [(-3, 0, 12, 9, -1, 10), (12, 12, -3, -3, 5, 11), (0, 1, 2, 3, 4, 5)]
    if dtype == np.int16:
        cells.append((-1200, 32767, -32768, 7, 100, -99))
    net = _hand_net(cells, dtype)
    text = "".join(net_lines(net))
    assert text == joined_net_text(net)
    rows = [ln.split()[1].split(",") for ln in text.splitlines()[1:]]
    assert rows == [[str(v) for v in row] for row in net.cells.tolist()]


@pytest.mark.parametrize("value", [0, 7, -4, 100])
def test_net_lines_match_the_joined_formatter_on_single_valued_cells(value):
    net = _hand_net([(value,) * 5, (value,) * 5], np.int8)
    assert "".join(net_lines(net)) == joined_net_text(net)
    assert "".join(net_lines(net)).splitlines()[1].split()[1] == ",".join([str(value)] * 5)


def test_certify_pair_grants_close_bodies():
    fam = enumerate_steps(4, level_count(4, 2.0))
    cert = certify_pair(lp_body(4, 2.0), lp_body(4, 2.25), fam, 2.0, samples=500, stream=substream(3, "cp"))
    assert cert.granted
    assert cert.empirical_ok
    assert cert.max_ratio <= cert.ratio_bound
    assert cert.distance_bound >= 1.0
    assert cert.witness_step is None
    assert cert.samples == 500


def test_certify_pair_rejects_far_bodies():
    # the extreme pair differs by a factor n in one direction, which a
    # tight tau budget cannot absorb
    n, tau = 4, 1.2
    fam = enumerate_steps(n, level_count(n, tau))
    cert = certify_pair(
        lp_body(n, 1.0), lp_body(n, math.inf), fam, tau, samples=300, stream=substream(4, "cp2")
    )
    assert not cert.granted
    assert cert.witness_step is not None


def test_certify_pair_is_reproducible():
    fam = enumerate_steps(4, 3)
    a = certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=400, stream=substream(5, "cp3"))
    b = certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=400, stream=substream(5, "cp3"))
    assert a == b


def test_certify_pair_settles_a_self_pair_without_norms_or_draws(monkeypatch):
    rows = []
    norm_many = SymmetricBody.norm_many

    def counted(self, x):
        out = norm_many(self, x)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(SymmetricBody, "norm_many", counted)
    fam = enumerate_steps(4, 3)
    stream = substream(6, "cp4")
    cert = certify_pair(lp_body(4, 1.5), lp_body(4, 1.5), fam, 2.0, samples=300, stream=stream)
    assert rows == []
    assert cert.granted and cert.max_ratio == 1.0
    assert cert.empirical_ok and cert.samples == 300
    assert stream.standard_normal() == substream(6, "cp4").standard_normal()
    certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=300, stream=substream(6, "cp4"))
    assert rows == [300, 300]


def test_a_self_pair_reads_the_ratio_that_sampling_gives():
    # nk / nk is exactly 1.0 for a finite nonzero norm, and nanmax skips
    # the NaN of a zero row, so the sampled maximum is 1.0 for every kind
    n = 6
    fam = enumerate_steps(n, 3)
    x = substream(8, "cp5").standard_normal((2000, n))
    x[0] = 0.0
    for body in (lp_body(n, 1.0), lp_body(n, 3.5), lp_body(n, 60.0), lp_body(n, math.inf),
                 top_k_body(n, 2), lorentz_body(n, np.geomspace(1.0, 1e-3, n))):
        nk = body.norm_many(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            sampled = float(np.nanmax(np.maximum(nk / nk, nk / nk)))
        cert = certify_pair(body, body, fam, 2.0, samples=2000, stream=substream(8, "cp5"))
        assert cert.max_ratio == sampled == 1.0 and cert.empirical_ok


def test_certify_pair_evaluates_family_norms_only_for_distinct_bodies(monkeypatch):
    calls = []
    family_norms = SymmetricBody.family_norms

    def counted(self, family, tau):
        calls.append(self)
        return family_norms(self, family, tau)

    monkeypatch.setattr(SymmetricBody, "family_norms", counted)
    fam = enumerate_steps(4, 3)
    assert certify_pair(lp_body(4, 1.5), lp_body(4, 1.5), fam, 2.0, samples=0).granted
    assert calls == []
    certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=0)
    assert calls == [lp_body(4, 1.5), lp_body(4, 2.0)]


def test_certify_pair_matches_the_full_sandwich():
    def check(k_body, d_body, fam, tau):
        cert = certify_pair(k_body, d_body, fam, tau, samples=0)
        assert (cert.granted, cert.witness_step) == full_sandwich(k_body, d_body, fam, tau)
        assert cert.distance_bound == (tau**6 if cert.granted else None)
        return cert

    n, tau = 6, 2.0
    fam = enumerate_steps(n, level_count(n, tau))
    for body in (lp_body(n, 1.0), lp_body(n, 3.5), lp_body(n, math.inf), top_k_body(n, 2),
                 lorentz_body(n, np.geomspace(1.0, 1e-3, n))):
        assert check(body, body, fam, tau).granted
        assert check(body, SymmetricBody(body.kind, n, body.param), fam, tau).granted
    # the smallest float tau above 1, where tau * phi exceeds phi by an
    # ulp or two (by none for a tiny subnormal phi): equal bodies pass
    tiny = 1.0 + 2.0**-52
    assert check(lp_body(n, 2.0), lp_body(n, 2.0), enumerate_steps(n, 3), tiny).granted
    assert not check(lp_body(n, 2.0), lp_body(n, 2.5), enumerate_steps(n, 3), tiny).granted
    # n = 12, tau = 3: the p = 1 norm of (2, 2, 11) is exactly tau^0
    fam = enumerate_steps(12, level_count(12, 3.0))
    j = fam.maps.tolist().index([2, 2, 11])
    assert lp_body(12, 1.0).family_norms(fam, 3.0)[j] == 1.0
    assert check(lp_body(12, 1.0), lp_body(12, 1.0), fam, 3.0).granted
    # a distinct pair that fails, with the first failing map as witness
    n, tau = 4, 1.2
    fam = enumerate_steps(n, level_count(n, tau))
    cert = check(lp_body(n, 1.0), lp_body(n, math.inf), fam, tau)
    assert not cert.granted and cert.witness_step is not None


def test_net_of_the_default_lp_family_stays_small(tmp_path):
    # n = 12, tau = 1.5: 167,960 step maps over 9 levels, 14 cells, each
    # member its own representative.  The uint8 level widths (1.5 MB),
    # the int8 cell rows (2.4 MB) and one body's transients while it is
    # profiled (its float norms, log profile and cell indices, 1.3 MB
    # each) make about 9 MB; a norms cache over all bodies (+18.8 MB),
    # the text built whole from a list of lines (+9.4 MB), int64 cells
    # (+16.5 MB) or an int64 map matrix (12.1 MB) would each break it
    bodies = [lp_body(12, 1 + 0.25 * i) for i in range(13)] + [lp_body(12, math.inf)]
    path = tmp_path / "net.txt"
    tracemalloc.start()
    try:
        net = build_net(bodies, 1.5)
        rep_of = {pos: rep for cell, rep in net.cell_reps for pos in net.members[cell]}
        certs = [certify_pair(body, rep_of[i], net.family, 1.5, stream=substream(7, f"cp/{i}"))
                 for i, body in enumerate(bodies)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(net_lines(net))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.cell_count == 14 and all(c.granted for c in certs)
    assert path.read_text(encoding="utf-8").count("\n") == 15
    assert peak < 14e6, peak


def test_net_cells_take_the_narrowest_type_of_their_grid():
    # cell indices of the expected profiles lie in 0 .. floor(log n / log tau) + 2
    for n, tau, dtype, top in ((12, 1.5, np.int8, 8), (2, 1.005, np.int16, 140)):
        net = build_net([lp_body(n, 1.0), lp_body(n, math.inf)], tau)
        assert net.cells.dtype == dtype
        assert 0 <= net.cells.min() and net.cells.max() <= top
    # the text form never wraps a narrow row, even at the type's edges
    net = build_net([lp_body(3, 2.0)], 2.0)
    row = np.full((1, net.profile_count), np.iinfo(np.int8).max, dtype=np.int8)
    row[0, 0] = -1
    net.cells = row
    line = "".join(net_lines(net)).splitlines()[1]
    assert line.split()[1] == ",".join(["-1"] + ["127"] * (net.profile_count - 1))


@pytest.mark.parametrize("far", [128, -129])
def test_a_cell_index_outside_the_narrow_type_raises(monkeypatch, far):
    import bmbodies.symnet as symnet

    def far_cell(profile, tau):
        idx = profile_cell(profile, tau)
        idx[-1] = far
        return idx

    monkeypatch.setattr(symnet, "profile_cell", far_cell)
    with pytest.raises(ValueError, match="do not fit the net's int8 cells"):
        build_net([lp_body(12, 2.0)], 1.5)


_LEVEL_GRID = [(n, tau) for n in (1, 2, 3, 7, 8, 12, 16, 64, 100, 1000)
               for tau in (1.01, 1.1, 1.25, 1.3, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 10.0, 1e6)]
_LEVEL_GRID += [(1, Fraction(3, 2)), (4, Fraction(9, 8)), (7, 2.0)]
# exact boundaries, n * tau^-(L-1) == 1 - 1/tau, where L - 1 is refused
_LEVEL_EDGES = [(1, 2.0), (2, 2.0), (8, 2.0), (64, 2.0), (2, 3.0), (6, 3.0), (18, 3.0),
                (3, 4.0), (12, 4.0), (5, 6.0), (30, 6.0), (2, Fraction(3))]


def test_level_count_matches_the_exact_loop():
    for n, tau in _LEVEL_GRID + _LEVEL_EDGES:
        assert level_count(n, tau) == level_count_loop(n, tau), (n, tau)
    for n, tau in _LEVEL_EDGES:
        L = level_count(n, tau)
        assert n * Fraction(tau) ** (1 - L) == 1 - 1 / Fraction(tau), (n, tau)
