"""Does a kernel stay positive definite on every space at once?

Fixing beta and sending alpha to infinity is the natural stress test: a
negative normalized coefficient a_n = F^(n) P_n(1) at any finite alpha
already rules out simultaneous positive definiteness over the whole family.
The sweep certifies every alpha, and the table prints the certified a_n,
whose intervals are far narrower than the digits shown.  The geodesic
kernel +theta fails this test; its chordal counterpart passes every alpha
we sweep.
"""

import mpmath as mp

from zonalpd.jacobi import jacobi_value_at_one
from zonalpd.posdef import all_spaces_check

ALPHAS = (2.0, 4.0, 8.0, 16.0)

for text in ("riesz-geodesic:s=1", "riesz-chordal:s=1"):
    res = all_spaces_check(text, beta=-0.5, alpha_list=ALPHAS, N=10, digits=30)
    print(f"{text}, beta = -1/2:")
    print(f"  verdict: {res.verdict}")
    if res.witness:
        al, n = res.witness
        print(f"  witness: a_{n} < 0 at alpha = {al:g}")
    print("  certified a_n = F^(n) P_n(1):")
    print("     n" + "".join(f"{f'alpha = {al:g}':>14}" for al in ALPHAS))
    worst = 0
    for n in range(7):
        cells = []
        for al in ALPHAS:
            rep = res.reports[al]
            e, p1 = rep.entry(n), jacobi_value_at_one(rep.space, n)
            cells.append(f"{mp.nstr(e.value * p1, 6):>14}")
            worst = max(worst, e.error * p1)
        print(f"  {n:>4}" + "".join(cells))
    print(f"  largest error of these a_n: {mp.nstr(worst, 2)}")
    print()

print("the chordal a_n stay positive at every alpha; the geodesic ones turn")
print("negative, so positivity on all spaces at once needs the chordal")
print("metric here.")
