"""Two sections of the genus-2 disc bundle: holomorphic versus Lagrangian.

The same regular-octagon surface group is embedded two ways: inside the
standard complex geodesic (a holomorphic section) and inside the standard
real plane (a Lagrangian section).  The discrete-connection degrees
separate the two cleanly:

    holomorphic:  tau = chi = -2,  e = chi / 2 = -1
    Lagrangian:   tau = 0,         e = -chi    = +2

both consistent with 3 tau = 2 e + 2 chi (signed and unsigned variants).
"""

from chdisc import euler_via_mesh, octagon_mesh, toledo_via_mesh


def main():
    for kind in ("complex", "lagrangian"):
        mesh = octagon_mesh(kind, refinement=4)
        tau = toledo_via_mesh(mesh)
        degrees = euler_via_mesh(mesh)
        print(f"{kind} octagon section")
        print(f"  vertices {len(mesh.vertices)}  faces {len(mesh.triangles)}")
        print(f"  toledo        {tau:+.12f}")
        print(f"  chi degree    {degrees.chi_raw:+.12f} -> {degrees.chi}")
        print(f"  euler degree  {degrees.euler_raw:+.12f} -> {degrees.euler}")
        print(f"  3 tau - 2e - 2 chi = "
              f"{3 * round(tau) - 2 * degrees.euler - 2 * degrees.chi}")


if __name__ == "__main__":
    main()
