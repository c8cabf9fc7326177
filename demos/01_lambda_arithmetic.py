"""Tour of the scalar ring and the λ-module.

Classes live in the span of λ_a · L^b where λ_a is the a-th exterior power of
a genus-g curve's weight-one class and L is the Lefschetz class.  Everything
is exact integer arithmetic.
"""

from motiveforge import L, LaurentInt, MotiveClass, lambda_binomial

# --- Laurent polynomials in L -------------------------------------------------

p = 1 + 2 * L + L ** 2
q = 1 - L
print("p        =", p.render())
print("p * q    =", (p * q).render())
print("p / (1+L) =", p.exact_div(1 + L).render())

# division that cannot be exact raises and carries its remainder
try:
    (1 + L ** 2).exact_div(1 + L)
except Exception as exc:
    print("non-exact:", exc)

# series expansion when the divisor is not invertible as a polynomial
quotient, exact = (1 + L).series_div(1 - L, 6)
print("(1+L)/(1-L) up to L^6 =", quotient.render(), "| terminated:", exact)

# --- motive classes ------------------------------------------------------------

# indices above g fold down: λ_3 at genus 2 is λ_1 · L
print()
print("canonicalize λ3 at g=2:", MotiveClass(2, {3: 1}).render())
print("canonicalize λ4 at g=2:", MotiveClass(2, {4: 1}).render())

x = MotiveClass(2, {0: 1 + L, 1: 1})
print("x            =", x.render())
print("x * (1+L)    =", (x * (1 + L)).render())
print("x twisted    =", x.twist(-1).render(), "   (twist by (-1) multiplies by L)")
print("x dual       =", x.dual().render())

# the weight of λ_a·L^b is a + 2b; classes split into homogeneous parts
print("weights of x =", x.weights())
for w, part in x.weight_decomposition().items():
    print(f"  weight {w}: {part.render()}")

# --- the binomial classes -------------------------------------------------------

# (1 + L)^(h¹C) collects every exterior power with Tate monomial coefficients
b = lambda_binomial(0, 1, 2)
print()
print("(1 + L)^(h1) at g=2:", b.render())
print("rank of (1 + 1)^(h1):", lambda_binomial(0, 0, 2).rank(), "= 2^(2g)")

# the two argument orders differ by a twist: (A+B)^M = L^-g (BL + A)^M
lhs = lambda_binomial(1, -1, 3)
rhs = lambda_binomial(0, 1, 3) * LaurentInt.monomial(-3)
print("binomial symmetry at g=3:", lhs == rhs)
