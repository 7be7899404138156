"""The shared quadrature plan: fixed-point sums against the former mpf
accumulation, DE node geometry built once per precision, and equal results
from cold, warm and concurrently used caches."""
import importlib
import pkgutil
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

import zonalpd
from zonalpd import cli, jacobi, posdef, transform
from zonalpd.jacobi import jacobi_eval_all
from zonalpd.kernels import parse_kernel
from zonalpd.posdef import scan_riesz
from zonalpd.spaces import make_space
from zonalpd.transform import certify_coefficients, coefficients_de, coefficients_gj

SPACES = ("RP2", "HP2", "OP2", "S4")
KERNELS = (
    "riesz-geodesic:s=-0.6",
    "riesz-chordal:s=0.7",
    "log-geodesic",
    "gauss-chordal:lambda=1",
)
# digits the mpf oracle carries beyond the working precision
EXTRA_DPS = 20


class PairedSums(transform._AngleSums):
    """The fixed-point sums, paired with the former mpf accumulation over the
    same nodes: f and t as the route forms them, P_n and the sums in mpf at
    EXTRA_DPS more digits."""

    made: list = []

    def __init__(self, space, kernel, N, sinc=False):
        super().__init__(space, kernel, N, sinc)
        self.ab_mp = (mp.mpf(space.alpha), mp.mpf(space.beta))
        self.oracle = [mp.mpf(0)] * (N + 1)
        PairedSums.made.append(self)

    def add(self, u, sinu, cosu, factor, comp=None):
        t = 1 - 2 * sinu * sinu
        s, c = (sinu / u, cosu / comp) if self.sinc else (sinu, cosu)
        f = self.const * factor * s**self.e_sin * c**self.e_cos
        f *= self.kernel.eval_g(u, sinu, cosu)
        with mp.workdps(mp.mp.dps + EXTRA_DPS):
            P = jacobi_eval_all(self.ab_mp, len(self.S) - 1, t)
            for n in range(len(self.S)):
                self.oracle[n] += f * P[n]
        return super().add(u, sinu, cosu, factor, comp)


class OperatorSums(transform._AngleSums):
    """`_AngleSums.add` written with mpmath operators; the library calls
    `mpmath.libmp` directly and must agree with this form bit for bit."""

    def add(self, u, sinu, cosu, factor, comp=None):
        t = 1 - 2 * sinu * sinu
        s, c = (sinu / u, cosu / comp) if self.sinc else (sinu, cosu)
        f = self.const * factor * s**self.e_sin * c**self.e_cos
        f *= self.kernel.eval_g(u, sinu, cosu)
        self.finite = self.finite and mp.isfinite(f)
        W, S = self.wbits, self.S
        x, F = libmp.to_fixed(t._mpf_, W), libmp.to_fixed(f._mpf_, W)
        self.count += 1
        self.abs_f += abs(F)
        S[0] += F << W
        if len(S) > 1:
            one, (const, slope) = 1 << W, self.seed
            p_prev, p = one, const + (slope * (x - one) >> W)
            S[1] += F * p
            for n, (r2, r3, r4) in enumerate(self.ratios, start=2):
                p_prev, p = p, ((r2 + (r3 * x >> W)) * p - r4 * p_prev) >> W
                S[n] += F * p
        return abs(f)


def de_node_operators(tau):
    """`transform._de_node` with mp.sinh and mp.cosh called separately."""
    half_pi = mp.pi / 2
    y = half_pi * mp.sinh(tau)
    one_plus_x = 2 / (1 + mp.exp(-2 * y))
    one_minus_x = 2 / (1 + mp.exp(2 * y))
    u = mp.pi / 4 * one_plus_x
    comp = mp.pi / 4 * one_minus_x
    w = (mp.pi / 4) * half_pi * mp.cosh(tau) / mp.cosh(y) ** 2
    return u, comp, w


def de_geometry_operators(level, i):
    """`transform._de_geometry` at tau = i 2^-level in mpmath operators."""
    u, comp, w = de_node_operators(mp.ldexp(abs(i), -level))
    if i < 0:
        u, comp = comp, u
    return u, mp.sin(u), mp.sin(comp), w


def values_operators(sums):
    """`_AngleSums.values` in mpmath operators."""
    return [mp.mpf((s, -2 * sums.wbits)) if sums.finite else mp.nan for s in sums.S]


def rounding_operators(sums):
    """`_AngleSums.rounding` in mpmath operators; B and E are floats."""
    B, E = sums.bounds
    u, k = mp.mpf((1, -sums.wbits)), sums.count
    mass = mp.mpf((sums.abs_f, -sums.wbits)) + k * u
    return [u * (k * (bn + 1) + en * mass) for bn, en in zip(B, E)]


def de_levels_operators(space, kernel, N, dps):
    """`transform._de_sums` with its level bookkeeping in mpmath operators,
    over the library's node sums: (I, err) of every level it runs, up to
    the one whose stop test passes.  Each level also checks the library's
    `values` and `rounding` against their operator forms."""
    sums = transform._AngleSums(space, kernel, N)
    nodes = {}
    pmax = jacobi._plan(space.alpha, space.beta, N, mp.mp.prec)[2]
    floor = mp.mpf(10) ** (-(dps + 8))
    tol = mp.mpf(10) ** (-(dps - 6))
    scale = mp.mpf(1)
    levels, I_cur = [], None
    err = [mp.mpf("inf")] * (N + 1)
    for level in range(transform.DE_MAX_LEVEL + 1):
        h = mp.ldexp(1, -level)
        if level == 0:
            sums.add(*transform._de_geometry(nodes, 0, 0))
        step, cap = (1, 199) if level == 0 else (2, 200000)
        for direction in (1, -1):
            j, quiet = 0, 0
            while quiet < 3 and j < cap:
                node = transform._de_geometry(nodes, level, direction * (step * j + 1))
                size = mp.make_mpf(sums.add(*node))
                quiet = quiet + 1 if size * pmax < floor * scale else 0
                j += 1
        assert tuple(sums.values()) == raw(values_operators(sums))
        assert tuple(sums.rounding()) == raw(rounding_operators(sums))
        I_prev, I_cur = I_cur, [h * s for s in values_operators(sums)]
        scale = max(mp.mpf(1), abs(I_cur[0]))
        if I_prev is not None:
            err = [abs(cur - prev) + floor * (1 + abs(cur)) + h * r
                   for cur, prev, r in zip(I_cur, I_prev, rounding_operators(sums))]
        levels.append((I_cur, err))
        if I_prev is not None and all(e <= tol * (1 + abs(v)) for e, v in zip(err, I_cur)):
            break
    return levels


def raw(values):
    return tuple(v._mpf_ for v in values)


class RecordingSums(transform._AngleSums):
    """The library's sums, keeping the arguments of every `add`."""

    made: list = []

    def __init__(self, space, kernel, N, sinc=False):
        super().__init__(space, kernel, N, sinc)
        self.calls = []
        RecordingSums.made.append(self)

    def add(self, *args):
        self.calls.append(args)
        return super().add(*args)


def caches():
    """Every object with a `cache_clear` in the namespace of a zonalpd module."""
    found = {}
    for info in pkgutil.iter_modules(zonalpd.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"zonalpd.{info.name}")
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def make_cold():
    """Empty every store the plan keeps between certifications."""
    for cache in caches():
        cache.cache_clear()


def test_only_the_plan_and_de_nodes_are_cached():
    # the plan per (space, N, precision), its rounding bounds per (space, N)
    found = caches()
    assert len(found) == 3
    assert jacobi._plan in found and jacobi._fixed_rounding in found
    assert transform._de_nodes_at in found


def test_escalation_builds_the_rounding_bounds_once():
    """The three rungs of an escalating certification read three plans, one
    per precision, and one set of rounding bounds.  The gauss term with
    weight 0 sends the kernel of P_4 down the quadrature route, where its
    zero coefficients below degree 4 stay undecided on every rung."""
    make_cold()
    argv = ["classify", "--space", "CP2",
            "--kernel", "lincomb(1*jacobi:n=4+0*gauss-chordal:lambda=1)", "--nmax", "5",
            "--digits", "15", "--mode", "pd"]
    assert cli.main(argv) == 2
    assert jacobi._plan.cache_info().misses == 3
    assert jacobi._fixed_rounding.cache_info().misses == 1


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("name", SPACES)
def test_fixed_point_sums_within_rounding_bound(monkeypatch, name, text):
    space = make_space(name)
    kernel = parse_kernel(text, space)
    N, digits = 12, 20
    monkeypatch.setattr(transform, "_AngleSums", PairedSums)
    monkeypatch.setattr(PairedSums, "made", [])
    coefficients_de(space, kernel, N, digits=digits)
    if not kernel.log_flag:
        coefficients_gj(space, kernel, N, digits=digits)
    assert len(PairedSums.made) == (1 if kernel.log_flag else 3)
    # the smaller of the two routes' floors, 10^-(digits+8) for DE
    floor = mp.mpf(10) ** -(digits + 8)
    with mp.workdps(digits + 10):
        pref = jacobi._plan(space.alpha, space.beta, N, mp.mp.prec)[1]
        for sums in PairedSums.made:
            bound = list(map(mp.make_mpf, sums.rounding()))
            with mp.workdps(digits + 10 + EXTRA_DPS):
                exact = [mp.mpf((s, -2 * sums.wbits)) for s in sums.S]
                for n in range(N + 1):
                    assert abs(exact[n] - sums.oracle[n]) <= bound[n], (n, sums.sinc)
                    # the folded bound sits many orders below the floor
                    assert pref[n] * bound[n] <= floor * mp.mpf("1e-6"), (n, sums.sinc)


def test_scan_builds_each_de_node_once_per_precision(monkeypatch):
    make_cold()
    built = []
    node = transform._de_node

    def counted(tau):
        built.append((mp.mp.prec, tau))
        return node(tau)

    certifications = []
    certify = posdef.certify_coefficients

    def counted_certify(*args, **kwargs):
        certifications.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(transform, "_de_node", counted)
    monkeypatch.setattr(posdef, "certify_coefficients", counted_certify)
    rp2 = make_space("RP2")
    res = scan_riesz(rp2, "geodesic", -0.7, -0.5, 0.1, N=8, bisect_tol=0.05, digits=15)
    assert res.bracket is not None
    assert len(certifications) >= 4
    assert built and len(built) == len(set(built))
    # a node at -tau is the swapped node at +tau, never built on its own
    assert all(mp.make_mpf(tau) >= 0 for _, tau in built)


def test_scan_builds_one_plan_for_every_certification(monkeypatch):
    """The benchmark's scan, in process: the first certification builds the
    plan for (RP2, N=16, its precision) and every later one only reads it."""
    make_cold()
    traffic = []
    certify = posdef.certify_coefficients

    def counted_certify(*args, **kwargs):
        before = jacobi._plan.cache_info()
        report = certify(*args, **kwargs)
        after = jacobi._plan.cache_info()
        traffic.append((after.misses - before.misses, after.hits - before.hits))
        return report

    monkeypatch.setattr(posdef, "certify_coefficients", counted_certify)
    argv = ["scan", "--space", "RP2", "--kernel", "riesz-geodesic",
            "--s-min", "-0.7", "--s-max", "-0.5", "--step", "0.1",
            "--bisect", "0.05", "--nmax", "16", "--digits", "20"]
    assert cli.main(argv) == 0
    assert len(traffic) >= 4
    assert jacobi._plan.cache_info().misses == 1
    assert traffic[0][0] == 1
    assert all(misses == 0 and hits > 0 for misses, hits in traffic[1:])


def test_cold_and_warm_plans_give_equal_reports():
    hp2, cp2 = make_space("HP2"), make_space("CP2")
    kernel = parse_kernel("riesz-chordal:s=0.7", hp2)
    make_cold()
    cold = certify_coefficients(hp2, kernel, N=10, target_digits=20)
    # fill the stores with another space and kernel at the same precision
    certify_coefficients(cp2, parse_kernel("log-geodesic", cp2), N=6, target_digits=20)
    warm = certify_coefficients(hp2, kernel, N=10, target_digits=20)
    assert warm == cold


def test_de_node_store_holds_few_precisions():
    make_cold()
    rp2 = make_space("RP2")
    kernel = parse_kernel("riesz-geodesic:s=-0.6", rp2)
    for digits in range(10, 17):
        coefficients_de(rp2, kernel, 2, digits=digits)
    assert transform._de_nodes_at.cache_info().currsize == transform._DE_NODE_PRECISIONS


def test_shared_plan_under_threads():
    # more threads than cores, with frequent switches, over a mix of spaces
    # and kernels racing to build the same nodes, tables and rules from cold
    # stores; every report must equal the one computed alone.  The mpmath
    # context is process-global, so the ambient precision is the routes' own
    # (digits + 10).
    jobs = []
    for name, text in (("RP2", "riesz-geodesic:s=-0.6"), ("CP2", "log-geodesic"),
                       ("S4", "gauss-chordal:lambda=1"), ("HP2", "riesz-chordal:s=0.7")):
        space = make_space(name)
        jobs.append((space, parse_kernel(text, space)))

    def reports(space, kernel):
        routes = [coefficients_de] if kernel.log_flag else [coefficients_de, coefficients_gj]
        return [route(space, kernel, 6, digits=15) for route in routes]

    failures = []
    with mp.workdps(25):
        make_cold()
        want = [reports(*job) for job in jobs]
        make_cold()

        def work(seed):
            for i in range(6):
                j = (seed + i) % len(jobs)
                if reports(*jobs[j]) != want[j]:
                    failures.append((seed, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


@pytest.mark.parametrize("dps", (15, 30, 60, 110))
def test_de_node_at_minus_tau_is_the_swapped_node(dps):
    """The tanh-sinh map is odd in tau: at levels 0-10 and |tau| <= 12 the
    node at -tau is (comp, u, w) of the node at +tau, bit for bit, and the
    store serves -i as the geometry built directly at -tau."""
    with mp.workdps(dps):
        for level in range(11):
            top = 12 << level
            for i in sorted({1, top, *range(1, top + 1, max(1, top // 40))}):
                tau = mp.ldexp(i, -level)
                plus, minus = transform._de_node(tau._mpf_), transform._de_node((-tau)._mpf_)
                assert plus == raw(de_node_operators(tau)), (level, i)
                assert minus == raw(de_node_operators(-tau)), (level, i)
                u, comp, w = plus
                assert minus == (comp, u, w), (level, i)
                u, comp, w = map(mp.make_mpf, minus)
                want = (u, mp.sin(u), mp.sin(comp), w)
                assert raw(transform._de_geometry({}, level, -i)) == raw(want), (level, i)


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("name", ("RP2", "HP2"))
def test_libmp_sums_equal_operator_sums(name, text):
    """Fed the same DE and Gauss-Jacobi (sinc) nodes, the library's sums and
    the operator form agree in S, count, sum |f|, finiteness and |f|."""
    space = make_space(name)
    kernel = parse_kernel(text, space)
    N = 12
    with mp.workdps(40):
        nodes = {}
        de = [transform._de_geometry(nodes, level, i)
              for level in range(4) for i in range(-(3 << level), (3 << level) + 1)]
        for sinc in (False, True):
            lib = transform._AngleSums(space, kernel, N, sinc)
            ops = OperatorSums(space, kernel, N, sinc)
            if sinc:
                v_nodes, weights = jacobi.gauss_jacobi_rule_mp((lib.e_cos, lib.e_sin), 24)
                quarter_pi = mp.pi / 4
                args = []
                for v, w in zip(v_nodes, weights):
                    u, comp = quarter_pi * (1 + v), quarter_pi * (1 - v)
                    args.append((u, mp.sin(u), mp.sin(comp), w, comp))
            else:
                args = de
            for node in args:
                assert lib.add(*node) == ops.add(*node)._mpf_
            assert (lib.S, lib.count, lib.abs_f, lib.finite) == \
                (ops.S, ops.count, ops.abs_f, ops.finite)
            assert lib.count == len(args)


@settings(max_examples=80, deadline=None)
@given(level=st.integers(0, 8), i=st.integers(-600, 600), prec=st.integers(60, 400))
def test_de_node_and_geometry_equal_operator_forms(level, i, prec):
    """`_de_node` and `_de_geometry` call `mpmath.libmp` and give the bits
    of the operator forms, far out in the tails included."""
    with mp.workprec(prec):
        tau = mp.ldexp(i, -level)
        assert transform._de_node(tau._mpf_) == raw(de_node_operators(tau))
        assert raw(transform._de_geometry({}, level, i)) == raw(de_geometry_operators(level, i))


@pytest.mark.parametrize("prec", (60, 170, 400))
@pytest.mark.parametrize("name, text", (("RP2", "riesz-geodesic:s=-0.6"),
                                        ("HP2", "riesz-chordal:s=0.7")))
def test_gj_angle_nodes_equal_operator_forms(monkeypatch, name, text, prec):
    """The Gauss-Jacobi loop feeds each rule node v to the sums as the
    operator form's (u, sin u, sin(pi/2 - u), w, pi/2 - u), u = pi/4 (1 + v),
    and returns the operator forms of their values and rounding bounds."""
    space = make_space(name)
    kernel = parse_kernel(text, space)
    monkeypatch.setattr(transform, "_AngleSums", RecordingSums)
    monkeypatch.setattr(RecordingSums, "made", [])
    with mp.workprec(prec):
        values, rounding = transform._gj_once_u(space, kernel, 6, 20)
        (sums,) = RecordingSums.made
        v_nodes, weights = jacobi.gauss_jacobi_rule_mp((sums.e_cos, sums.e_sin), 20)
        quarter_pi = mp.pi / 4
        want = []
        for v, w in zip(v_nodes, weights):
            u, comp = quarter_pi * (1 + v), quarter_pi * (1 - v)
            want.append(raw((u, mp.sin(u), mp.sin(comp), w, comp)))
        assert [raw(args) for args in sums.calls] == want
        assert raw(values) == raw(values_operators(sums))
        assert raw(rounding) == raw(rounding_operators(sums))


@pytest.mark.parametrize("dps", (20, 45))
@pytest.mark.parametrize("name, text", (("RP2", "riesz-geodesic:s=-0.6"),
                                        ("CP2", "log-geodesic"),
                                        ("HP2", "riesz-chordal:s=0.7")))
def test_de_levels_equal_operator_forms(monkeypatch, name, text, dps):
    """Capped at each level in turn, `_de_sums` returns that level's I and
    err of the operator form bit for bit, and uncapped it stops at the
    level where the operator form's stop test passes."""
    space = make_space(name)
    kernel = parse_kernel(text, space)
    N = 6
    with mp.workdps(dps + 10):
        levels = de_levels_operators(space, kernel, N, dps)
        I, err, used = transform._de_sums(space, kernel, N, dps)
        assert used == len(levels) - 1 < transform.DE_MAX_LEVEL
        for cap, (I_want, err_want) in enumerate(levels):
            monkeypatch.setattr(transform, "DE_MAX_LEVEL", cap)
            I, err, used = transform._de_sums(space, kernel, N, dps)
            assert (used, raw(I), raw(err)) == (cap, raw(I_want), raw(err_want)), cap
