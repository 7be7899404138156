"""Where does -log(theta) stop being positive definite?

On the real projective plane and 3-space, and on the complex projective
plane, every expansion coefficient we can reach is positive.  One rank up
the picture changes: RP4, CP3, HP2 and OP2 each show a certified negative
coefficient at a small even degree, so the log-kernel is not conditionally
positive definite there.  This script recomputes the table and prints the
offending degrees together with the certified values.  Each value comes
from the precision rung that decided its space's signs, and says which.
"""

from zonalpd.posdef import table1

res = table1(N=16, digits=40)

print(res.to_csv())
print("certified values at the first negative degree:")
for name, alpha, beta, first_neg, verdict in res.rows:
    if first_neg is None:
        continue
    report = res.reports[name]
    e = report.entry(first_neg)
    print(f"  {name:4s} n={first_neg:2d}  value {float(e.value):+.3e}"
          f"  (error bound {float(e.error):.1e} at {report.levels['digits']} digits)")

print()
print("every negative sits at an even degree; odd coefficients stay positive")
print("as far as the truncation reaches.")
