#!/usr/bin/env python3
"""Otto-cycle comparison: collective (coherent) vs per-spin (incoherent)
bath coupling for a two-spin working medium.

With a polarized preparation the collective machine keeps the relaxation in
the triplet sector and extracts more work per cycle at the same efficiency,
paying for it with a larger entropy production.
"""

import argparse

from cohentropy.scenarios import OttoConfig, OttoParams, build_otto_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta-cold", type=float, default=1.17)
    parser.add_argument("--beta-hot", type=float, default=0.1)
    parser.add_argument("--lam", type=float, default=2.0)
    parser.add_argument("--prep-beta", type=float, default=50.0)
    args = parser.parse_args()

    rep = build_otto_report(OttoConfig(otto=OttoParams(
        lam=args.lam, beta_cold=args.beta_cold, beta_hot=args.beta_hot,
        prep_beta=args.prep_beta,
    )))
    print(f"{'':14s}{'Q_c':>12s}{'Q_h':>12s}{'W':>12s}{'eta':>10s}{'Sigma':>12s}")
    for label, m in (("incoherent", rep.incoherent), ("coherent", rep.coherent)):
        eta = f"{m.eta:.6f}" if m.eta is not None else "n/a"
        print(f"{label:14s}{m.Q_c:12.6f}{m.Q_h:12.6f}{m.W:12.6f}{eta:>10s}{m.Sigma:12.6f}")
    gain = abs(rep.coherent.W) - abs(rep.incoherent.W)
    print(f"\nwork gain |W*| - |W| = {gain:+.6f}")
    print(f"entropy-production gain Sigma* - Sigma = "
          f"{rep.coherent.Sigma - rep.incoherent.Sigma:+.6f}")
    if rep.equal_eta_applies:
        print(f"equal-efficiency branch: identity residual {rep.equal_eta_identity:.3e}")


if __name__ == "__main__":
    main()
