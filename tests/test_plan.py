"""The shared quadrature plan: fixed-point sums against the former mpf
accumulation, DE node geometry built once per precision, and equal results
from cold, warm and concurrently used caches."""
import importlib
import pkgutil
import sys
import threading

import mpmath as mp
import pytest

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
    found = caches()
    assert len(found) == 2 and jacobi._plan in found and transform._de_nodes_at in found


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
            bound = sums.rounding()
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
