"""Invariants of a C-Fuchsian turnover: tau, e, chi, and 3 tau = 2e + 2 chi.

Builds the (3,3,4) turnover representation inside the standard complex
geodesic, computes the Toledo number from two closed-form decompositions
(the coned polygon and the faces of a section mesh), computes the
tangent and normal bundle degrees by discrete-connection holonomy, and
checks the identity 3 tau = 2 e + 2 chi after snapping to exact rationals.
"""

import numpy as np

from chdisc import (
    TurnoverSignature,
    distance,
    elliptic_fixed_point,
    euler_via_mesh,
    fuchsian_turnover,
    invariant_report,
    orbifold_euler,
    toledo_via_coning,
    toledo_via_mesh,
    turnover_section_mesh,
)


def main():
    sig = TurnoverSignature(3, 3, 4)
    chi = orbifold_euler(sig)
    print(f"signature {sig.orders()}   orbifold chi = {chi}")

    rep, quad = fuchsian_turnover(sig)
    print("relation residuals:")
    for word, r in rep.relation_residuals().items():
        print(f"  {word:>14s}  {r:.3e}")
    print(f"quadrangle certificate: pass={quad.certificate.passed}")

    # g2 is g3^-1 g1^-1, and the generators' fixed points span the triangle
    # with angles pi/n1, pi/n2, pi/n3 that the polygon is coned from
    g1, g2, g3 = (rep.generators[n] for n in ("g1", "g2", "g3"))
    gap = np.abs((g3.inverse() @ g1.inverse()).matrix - g2.matrix).max()
    print(f"g2 = g3^-1 g1^-1 to {gap:.1e}")
    fixed = {name: elliptic_fixed_point(g) for name, g in rep.generators.items()}
    x1, x2, x3 = (fixed[n] for n in ("g1", "g2", "g3"))
    print(f"fixed-point triangle sides {distance(x1, x2):.12f} "
          f"{distance(x2, x3):.12f} {distance(x3, x1):.12f}")
    tau_coned = toledo_via_coning(rep, fixed)

    mesh = turnover_section_mesh(*sig.orders(), refinement=4)
    tau_mesh = toledo_via_mesh(mesh)
    print(f"toledo (coned polygon)  {tau_coned:+.15f}")
    print(f"toledo (section mesh)   {tau_mesh:+.15f}")
    print(f"chi as float            {float(chi):+.15f}")

    degrees = euler_via_mesh(mesh)
    report = invariant_report(chi, tau_coned, degrees.euler_raw, mesh.snap_denominator())
    print(f"discrete chi degree     {degrees.chi_raw:+.15f} -> {degrees.chi}")
    print(f"normal bundle degree    {degrees.euler_raw:+.15f} -> {report.euler}")
    print(f"snapped: tau={report.toledo}  e={report.euler}  reliable={report.reliable}")
    print(f"identity residual |3 tau - 2e - 2 chi| = {report.residual(signed=True)}")


if __name__ == "__main__":
    main()
