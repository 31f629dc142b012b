"""Numerical certification of the analytic identities behind the estimator.

Runs the same checks as `pmichannel verify-theory` at a reduced size:
gauge annihilation and rotation equivariance of the Fisher matrix,
gradient/Hessian consistency, the loss-equivalence and KL identities, the
sphere fourth-moment and secant-expectation facts, the secant-curvature
certification, and the O(1/T) excess-risk rate of the MLE.
"""

from pmichannel import experiments

records = experiments.run_theory_verification(
    seed=0,
    moment_samples=200_000,
    secant_samples=20_000,
    slope_trials=15,
    workers=4,
)

width = max(len(r["check"]) for r in records)
for rec in records:
    mark = "pass" if rec["passed"] else "FAIL"
    print(f"[{mark}] {rec['check']:<{width}}  value={rec['value']:.4g}  threshold={rec['threshold']:.4g}  rule={rec['rule']}")

failed = [r for r in records if not r["passed"]]
print(f"\n{len(records) - len(failed)}/{len(records)} checks passed")
