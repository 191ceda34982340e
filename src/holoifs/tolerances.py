"""Every numerical tolerance of the package, in one table.

Each entry's comment names the quantity it compares, the error it absorbs,
and its scale: absolute, or relative to a named magnitude.  A module reads
the names it uses with ``from .tolerances import NAME``, so each name is
also an attribute of that module.  This module imports nothing.
"""

# maps

#: square-root inverse's half-plane test and round trip; rounding of y*y + c; × max(1, |y|)
INVERT_RTOL = 1e-12

#: least derivative modulus that is reciprocated; underflow at a branch point; absolute
DERIV_FLOOR = 1e-300

#: least margin of a map's image of the domain disk; gaps between boundary samples; absolute
CONTAINMENT_MARGIN = 1e-9

# attractor

#: a frozen block's chain disk, per enclosure step; rounding of the centres; × (|c0| + R)
ROUNDING_PAD = 2.0**-40

#: rho_radius ball queries; rounding of distances and balls; relative, plus × (1 + |c|/R)
BALL_SLACK = 1e-9

# dynamics

#: last step of the fixed-point iteration; rounding jitter of the iterates; × max(1, |p|)
FIXED_POINT_TOL = 1e-14

#: residual |g_w(p) - p| of a solved periodic point; iteration and rounding; absolute
PERIODIC_RESIDUAL_TOL = 1e-10

#: grid of the spectrum's (point, multiplier) keys; rounding between equal entries; absolute
SPECTRUM_DEDUP_TOL = 1e-9

#: |multiplier| against its length's bound U_k; rounding of ≤ length·factors moduli and radii; × U_k
MULTIPLIER_BOUND_SLACK = 1e-9

#: grid of the prep points' keys; rounding between points of one cycle; absolute
PREP_DEDUP_TOL = 1e-10

#: distance at which an inverse orbit recurs; rounding of the steps; absolute (prep: × max(1, |p|))
RECURRENCE_TOL = 1e-9

# symmetry

#: germ derivative |H'(a)| against [s_F, 1]; rounding of the derivative products; absolute
DERIV_SLACK = 1e-9

#: two germs' values on the class samples; rounding of the two compositions; absolute
GERM_EQUALITY_TOL = 1e-9

#: |lam^l - mu| of a match, × |lam^l|; the sources' key grid, absolute; rounding of the spectra
SPECTRUM_TOL = 1e-9

#: functional-equation residual on the disk samples; rounding of both sides; absolute
FUNC_EQ_TOL = 1e-9

#: germ image ring against the sandwich radii rho and s_F rho / 25; rounding; absolute
SANDWICH_SLACK = 1e-12

#: a carried net point's distance to the other net, beyond the nets' epsilons; rounding; absolute
SYMMETRY_RESIDUAL_TOL = 1e-9

#: floor of |H'(a)| × shrink, the backward tolerance's divisor; a vanishing derivative; absolute
BACKWARD_DERIV_FLOOR = 1e-12

# geometry

#: mirror error |conj g(z) - g(conj z)| of a real map; rounding of g; × max(1, max|z|)
REAL_TOL = 1e-12

#: a pseudo-hyperbolic distance is capped at 1 - ATANH_CLAMP; rounding up to 1; absolute
ATANH_CLAMP = 1e-16

# koenigs

#: |m(p) - p| at the point series_of_map expands at; error of a computed fixed point; absolute
SERIES_FIXED_POINT_TOL = 1e-12

#: residual of a functional root composed back; truncation of the series; absolute
ROOT_RESIDUAL_TOL = 1e-8
