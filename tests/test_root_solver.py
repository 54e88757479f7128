"""The arc oracle's fixed-point Durand-Kerner root solver against ``mpmath.polyroots``.

``_durand_kerner`` runs the iteration ``polyroots`` runs (same starts,
same absolute stopping test, same clean-up and sort), on Python ints
instead of ``mpf``.  ``polyroots`` stays the reference here: cold solves at
4x the working precision, warm solves at 2x.  The oracle reaches its 2x
solve on the precision ladder of ``_solve_roots``, which is checked against
a direct 2x ``_durand_kerner`` solve from the same start.

The solver takes and returns fixed-point pairs: ``dk`` and ``ladder``
convert the mpmath coefficients and starts of these tests to them, and the
roots back to mpc at the working precision.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest

from quintic_moduli import arc_limits
from quintic_moduli.arc_limits import (
    BITS,
    ORACLE_PREC,
    ArcSpec,
    FlexNormalForm,
    NoConvergence,
    _durand_kerner,
    _j_at_parameter,
    _solve_roots,
    default_schedule,
)

from conftest import from_fixed, to_fixed


def _monic(coeffs):
    """The lower coefficients of the monic polynomial, as fixed pairs."""
    with mp.workprec(4 * BITS):
        lead = coeffs[0]
        return [to_fixed(mp.mpc(c) / lead) for c in coeffs[1:]]


def _fixed_starts(init):
    return None if init is None else [to_fixed(z) for z in init]


def dk(coeffs, bits, init=None):
    """``_durand_kerner`` at ``bits`` with the working precision's stopping test."""
    roots = _durand_kerner(_monic(coeffs), bits, mp.mp.prec, _fixed_starts(init))
    return [from_fixed(z) for z in roots]


def ladder(coeffs, start):
    """``_solve_roots`` from the mpc ``start`` (or cold)."""
    return [from_fixed(z) for z in _solve_roots(_monic(coeffs), _fixed_starts(start))]


def _expand(lead, roots):
    """Descending coefficients of lead * prod (x - r)."""
    coeffs = [mp.mpc(lead)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _real(coeffs):
    assert all(c.imag == 0 for c in coeffs)
    return [c.real for c in coeffs]


def _draw(rng, scale=1):
    return mp.mpf(rng.randint(-4096, 4096)) / 1024 * scale


def _seeded_cases(seed, scale=1):
    """(name, roots, coefficients) for degrees 1-5: complex roots, real roots
    and real coefficients with conjugate pairs, each with a non-unit leading
    coefficient.  The roots are 1/1024-grid points times ``scale``, so the
    coefficients are exact at the oracle's precision."""
    rng = random.Random(seed)
    cases = []
    for deg in range(1, 6):
        lead = rng.choice([1, 3, -7, mp.mpf("0.125")])
        roots = [mp.mpc(_draw(rng, scale), _draw(rng, scale)) for _ in range(deg)]
        cases.append((f"complex-{deg}", roots, _expand(lead, roots)))
        roots = [mp.mpc(_draw(rng, scale)) for _ in range(deg)]
        cases.append((f"real-{deg}", roots, _real(_expand(lead, roots))))
        roots = []
        while len(roots) + 2 <= deg:
            z = mp.mpc(_draw(rng, scale), _draw(rng, scale) or scale)
            roots += [z, mp.conj(z)]
        roots += [mp.mpc(_draw(rng, scale)) for _ in range(deg - len(roots))]
        cases.append((f"conjugate-{deg}", roots, _real(_expand(lead, roots))))
    return cases


def _tolerance(roots, bits):
    """Allowed error at each root: 1e-100 relative, or the fixed-point floor
    where that is larger.

    Horner on ints scaled by 2**bits errs by about 2**-bits absolutely, which
    moves a root by that over |f'(root)| of the monic polynomial.  The floor
    matters only where every root is tiny (``polyroots``' floats shrink with
    them); the oracle balances its roots around 1 first."""
    out = []
    for k, r in enumerate(roots):
        slope = mp.fprod(abs(r - s) for j, s in enumerate(roots) if j != k)
        out.append(max(1e-100 * max(1, abs(r)), 16 * mp.ldexp(1, -bits) / slope))
    return out


def _assert_matches(got, want, tol):
    """A one-to-one matching of got onto want, want[k] within tol[k]."""
    assert len(got) == len(want)
    unused = list(zip(want, tol))
    for z in got:
        k = min(range(len(unused)), key=lambda k: abs(unused[k][0] - z))
        w, t = unused.pop(k)
        assert abs(w - z) <= t, (z, w)


def _assert_sorted(roots):
    keys = [(abs(mp.im(z)), mp.re(z)) for z in roots]
    assert keys == sorted(keys)


def _assert_exactly_real_like(got, want):
    """The clean-up rule: the same number of exactly-real roots as polyroots."""
    assert sum(mp.im(z) == 0 for z in got) == sum(mp.im(z) == 0 for z in want)


# cold starts lie near the unit circle: from there, shrinking onto roots of
# size 1e-40 takes both solvers a hundred-odd sweeps, so that scale is
# covered warm only
@pytest.mark.parametrize("scale", [1, mp.mpf("1e40")])
def test_cold_solves_match_polyroots(scale):
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        for name, roots, coeffs in _seeded_cases(20261018, scale):
            want = mp.polyroots(coeffs, maxsteps=1000, extraprec=3 * prec)
            got = dk(coeffs, 4 * prec)
            _assert_matches(got, want, _tolerance(want, 4 * prec))
            _assert_matches(got, roots, _tolerance(roots, 4 * prec))
            _assert_sorted(got)
            _assert_exactly_real_like(got, want)
            if name.startswith("real"):
                assert all(z.imag == 0 for z in got), name


@pytest.mark.parametrize("scale", [1, mp.mpf("1e40"), mp.mpf("1e-40")])
def test_warm_solves_match_polyroots(scale):
    rng = random.Random(7)
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        for _, roots, coeffs in _seeded_cases(99, scale):
            init = [z * (1 + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-6) for z in roots]
            want = mp.polyroots(coeffs, maxsteps=1000, extraprec=prec, roots_init=init)
            got = dk(coeffs, 2 * prec, init)
            _assert_matches(got, want, _tolerance(want, 2 * prec))
            _assert_matches(got, roots, _tolerance(roots, 2 * prec))
            _assert_sorted(got)


def test_close_pair_is_resolved():
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        pair = mp.mpf("0.3") + mp.mpf("1e-30")
        roots = [mp.mpc("0.3"), mp.mpc(pair), mp.mpc(-1, 2), mp.mpc(-1, -2), mp.mpc(2)]
        coeffs = _real(_expand(5, roots))
        want = mp.polyroots(coeffs, maxsteps=1000, extraprec=3 * prec)
        got = dk(coeffs, 4 * prec)
        _assert_matches(got, want, _tolerance(want, 4 * prec))
        # the coefficients are rounded at the working precision, which moves
        # the pair by about eps / 1e-30
        _assert_matches(got, roots, [1e-80] * 5)
        low, high = sorted(mp.re(z) for z in got if abs(z - roots[0]) < 1e-20)
        assert high - low > 0.9e-30
        assert all(mp.im(z) == 0 for z in got[:3])


def test_clean_up_zeroes_parts_below_eps():
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        # x (x^2 + 4) (x - 1): an exact zero, a purely imaginary pair, a real root
        coeffs = [mp.mpf(c) for c in (1, -1, 4, -4, 0)]
        got = dk(coeffs, 4 * prec)
        assert got[0] == 0 and got[1] == 1
        assert {(mp.re(z), mp.im(z)) for z in got[2:]} == {(0, 2), (0, -2)}
        assert got == mp.polyroots(coeffs, maxsteps=1000, extraprec=3 * prec)


def test_underflowing_difference_raises():
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        coeffs = [mp.mpf(c) for c in (1, 0, -1)]
        with pytest.raises(NoConvergence):
            dk(coeffs, 2 * prec, [mp.mpc(2), mp.mpc(2)])
        # distinct estimates that fixed point at 2 * prec bits cannot tell apart
        with mp.workprec(4 * prec):
            twin = mp.mpc(2) + mp.ldexp(1, -2 * prec - 8)
        assert twin != 2
        with pytest.raises(NoConvergence):
            dk(coeffs, 2 * prec, [mp.mpc(2), twin])


def test_diverging_step_raises():
    """Estimates one unit of 2**-bits apart: the first correction is
    3 * 2**bits, and fixed point stops there instead of growing its ints."""
    with mp.workprec(ORACLE_PREC):
        bits = 2 * mp.mp.prec
        coeffs = [mp.mpf(c) for c in (1, 0, -1)]
        with mp.workprec(2 * bits):
            init = [mp.mpc(2), mp.mpc(2) + mp.ldexp(1, -bits)]
        with pytest.raises(NoConvergence):
            dk(coeffs, bits, init)


@pytest.mark.parametrize("multiple", [0.5, 0.999, 1.001, 1.5, 1.999, 3])
def test_stopping_test_is_polyroots(monkeypatch, multiple):
    """A last correction of ``multiple`` * eps ends the solve after one sweep
    exactly when it ends polyroots' after one sweep."""
    with mp.workdps(30):
        prec = mp.mp.prec
        root, eps = mp.mpf(1) / 3, +mp.eps
        with mp.workprec(2 * prec):  # the start, exactly
            init = [mp.mpc(root + eps * multiple)]
        coeffs = [mp.mpf(1), -root]
        try:
            mp.polyroots(coeffs, maxsteps=1, extraprec=prec, roots_init=init)
            converges = True
        except mp.mp.NoConvergence:
            converges = False
        assert converges == (multiple < 1)
        monkeypatch.setattr(arc_limits, "MAX_SWEEPS", 1)
        if converges:
            assert dk(coeffs, 2 * prec, init) == [root]
        else:
            with pytest.raises(NoConvergence):
                dk(coeffs, 2 * prec, init)
        monkeypatch.setattr(arc_limits, "MAX_SWEEPS", 2)
        assert dk(coeffs, 2 * prec, init) == [root]


def _perturbed(rng, roots, size):
    return [z * (1 + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * size) for z in roots]


@pytest.mark.parametrize("warm", [False, True])
def test_ladder_matches_direct_solve(warm):
    """The ladder ends in the direct 2x solve's stopping test, from a start
    closer than the direct solve's own.  The constant term is moved off the
    grid, so no stage lands on the roots exactly."""
    rng = random.Random(5)
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        for _, roots, coeffs in _seeded_cases(314):
            coeffs = coeffs[:-1] + [coeffs[-1] + mp.mpf(1) / 3000]
            start = _perturbed(rng, roots, 1e-3) if warm else None
            want = dk(coeffs, 2 * prec, start)
            got = ladder(coeffs, start)
            _assert_matches(got, want, _tolerance(want, 2 * prec))
            _assert_sorted(got)
            _assert_exactly_real_like(got, want)


@pytest.mark.parametrize("gap", ["1e-30", "1e-45"])
@pytest.mark.parametrize("warm", [False, True])
def test_ladder_resolves_close_pair(gap, warm):
    """A pair 1e-45 apart is below what the 64-bit stage (128-bit ints) can
    separate; the later stages and the final solve still resolve it."""
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        gap = mp.mpf(gap)
        pair = [mp.mpc("0.3"), mp.mpc(mp.mpf("0.3") + gap)]
        # the conjugate pair first, so the expanded coefficients stay real
        roots = [mp.mpc(-1, 2), mp.mpc(-1, -2), mp.mpc(2)] + pair
        coeffs = _real(_expand(5, roots))
        start = _perturbed(random.Random(3), roots, 1e-6) if warm else None
        want = dk(coeffs, 2 * prec, start)
        got = ladder(coeffs, start)
        _assert_matches(got, want, _tolerance(want, 2 * prec))
        low, high = sorted(mp.re(z) for z in got if abs(z - pair[0]) < 1e-20)
        assert high - low > 0.9 * gap


@pytest.mark.parametrize("stage", [64, 128, 256, "final"])
def test_a_failing_stage_is_skipped(monkeypatch, stage):
    """Refusing one stage of every root solve (the final one falls back to a
    cold 4x solve) leaves j at a cold and at a warm-started t as it was."""
    nf = FlexNormalForm.default()
    arc = ArcSpec([0, 0, 1], [0, 0, 0, 1])
    with mp.workprec(ORACLE_PREC):
        prec = mp.mp.prec
        t0, t1 = (Fraction(t) for t in default_schedule()[1:3])  # j is defined at both
        j0, roots0 = _j_at_parameter(nf, arc, t0)
        j1, _ = _j_at_parameter(nf, arc, t1, roots0)
        solve = arc_limits._durand_kerner
        refused = []

        def refuse_one_stage(monic, bits, prec_, init=None):
            here = "final" if prec_ == prec and bits == 2 * prec else prec_
            if here == stage:
                refused.append(bits)
                raise NoConvergence("refused")
            return solve(monic, bits, prec_, init)

        monkeypatch.setattr(arc_limits, "_durand_kerner", refuse_one_stage)
        k0, _ = _j_at_parameter(nf, arc, t0)
        k1, _ = _j_at_parameter(nf, arc, t1, roots0)
        j0, j1, k0, k1 = map(from_fixed, (j0, j1, k0, k1))
    assert len(refused) == 2
    assert abs(k0 - j0) <= 1e-100 * abs(j0)
    assert abs(k1 - j1) <= 1e-100 * abs(j1)
