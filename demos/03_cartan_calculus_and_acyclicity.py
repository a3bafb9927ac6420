"""Relative differential forms: Cartan calculus and exact dimension tables.

Forms relative to the vertex algebra have basis p0 dp1 ... dpn with the
entries matching head to tail.  The Euler derivation E grades everything by
total path length and each graded piece is finite dimensional.  Since
L_E = d i_E + i_E d is L times the identity in length L, the complex is
acyclic in positive length (the noncommutative Poincare lemma), and
commutator-quotient representatives are read off least rotations of
signed cyclic words.
"""
from necklacekit import (
    Arrow,
    Path,
    PathSum,
    Quiver,
    contract,
    d_of_path_sum,
    differential,
    double,
    dr0_dimension,
    euler_derivation,
    graded_homology_dim,
    karoubi_dim,
    lie_derivative,
    omega_basis,
    reduce_to_dr1,
    symplectic_form,
)

q = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))
dq = double(q)

# d prepends a vertex idempotent; applying it twice hits a zero-length lead:
a = Path.of_arrow(dq, "a")
da = d_of_path_sum(PathSum.of(a))
print("d(a)  =", da)
print("dd(a) =", differential(da))

# The canonical 2-form of the double and its contraction with the Euler
# derivation (every arrow to itself), reduced to the 1-form quotient:
omega = symplectic_form(q)
print("\nomega =", omega)
euler = euler_derivation(dq)
print("i_E(omega) reduced:", reduce_to_dr1(contract(euler, omega)))

# The Lie derivative along the Euler derivation reads off the grading:
elt = omega_basis(dq, 2, 3)[0]
from necklacekit import FormSum

x = FormSum.of(elt)
print("\nL_E on", elt, "->", lie_derivative(euler, x))

# Homology of d vanishes in positive length, piece by piece; the only
# surviving class is the vertex algebra at bidegree (0, 0):
print("\nhomology dimensions (degree x length):")
for degree in range(0, 3):
    row = [graded_homology_dim(dq, degree, length) for length in range(0, 5)]
    print(f"  degree {degree}:", row)

# Commutator quotients: in degree 0 the dimensions count necklace words.
print("\ncommutator-quotient dimensions in degree 0 vs necklace counts:")
for length in range(0, 5):
    dim, reps = karoubi_dim(dq, 0, length)
    print(f"  length {length}: {dim} (necklaces: {dr0_dimension(dq, length)})")

dim, reps = karoubi_dim(dq, 1, 1)
print("\ndegree 1, length 1 quotient basis:", ", ".join(str(r) for r in reps))
