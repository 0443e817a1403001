"""Berry phases of the Jaynes-Cummings eigenstates, three ways.

Walks through the k = 1 doublet at a few detunings and shows that the
closed-form phase, the photon-number expectation 2 pi <a^dag a>, and the
Stokes integral of the finite-difference Berry curvature all agree.  The
connection A_phi, the curvature and the radial field are numpy arrays over
the theta grid.
The monopole picture: the curvature of the upper eigenstate on the unit
parameter sphere is the field of a charge -1/2 at the origin.
"""

import math

import numpy as np

from rabigeom import geometry, model
from rabigeom.model import RabiParams

print("JC doublet, g1 = 0.1, detuning sweep")
print(f"{'Delta':>8} {'theta_1':>9} {'gamma_+':>10} {'2pi<n>_+':>10} "
      f"{'Stokes_+':>10} {'gamma_-':>10}")
for delta in (-0.3, -0.1, 0.0, 0.1, 0.3):
    params = RabiParams.jc(delta, 0.1)
    eig = model.jc_eigensystem(params, 1)

    closed = geometry.berry_phase_jc(params, 1, "+").gamma
    oracle = geometry.berry_phase_fock_state(eig.state_plus, [0, 1]).gamma

    thetas = np.linspace(0.0, eig.theta_k, max(3, round(eig.theta_k / 1e-3) + 1))
    a_phi = geometry.connection_field(params, "jc_plus", thetas, verify=False)
    curv = geometry.curvature_from_connection(thetas, a_phi)
    stokes = geometry.phase_by_surface_integral(thetas, curv).gamma

    minus = geometry.berry_phase_jc(params, 1, "-").gamma
    print(f"{delta:8.2f} {eig.theta_k:9.4f} {closed:10.6f} {oracle:10.6f} "
          f"{stokes:10.6f} {minus:10.6f}")

print()
print("Radial curvature field on the unit sphere (eigenstate: isotropic,")
print("vacuum-start noneigenstate: cos(theta), opposite charges at the poles)")
thetas = np.linspace(0.0, math.pi, 5)
eig_f = geometry.radial_field("eigen_jc", thetas)
non_f = geometry.radial_field("noneigen_jc", thetas)
for theta, e, n in zip(thetas, eig_f, non_f):
    print(f"  theta = {theta:6.3f}:  eigen {e:+.3f}   noneigen {n:+.3f}")
