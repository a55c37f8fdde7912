"""A zoo of mixed identities on finite groups, plus the lamplighter.

Every verdict below is an exhaustive proof over the whole group (the lab
refuses to sample).  The last section leaves finite groups: the limit
group of the abelian class-bound sequence c = (1, 1, ...) is exactly the
restricted lamplighter C2 wr Z, and the wreath identity is checked there
on bounded-support elements.
"""

import random

from miflab import LimitGroup, evaluate
from miflab import identity_lab as il
from miflab import mixed_words as mw

print("=== [x, g] = 1 for central g ===")
D4 = il.small_group("D4")
z = next(e for e in D4.center() if not D4.is_identity(e))
word = mw.commutator(mw.variable(D4), mw.constant(D4, z))
print(f"D4, g = {D4.render_element(z)}:", il.is_mixed_identity(word, D4).holds)

print("\n=== direct products: [[x, a], b] = 1 ===")
for left, right in [("C2", "C2"), ("S3", "C3"), ("D4", "C2")]:
    A, B = il.small_group(left), il.small_group(right)
    G = il.direct_product(A, B)
    w = mw.left_normed([
        mw.variable(G),
        mw.constant(G, B.size),  # a = (1, 0): the pair (x, y) has id x*|B| + y
        mw.constant(G, 1),       # b = (0, 1)
    ])
    v = il.is_mixed_identity(w, G)
    print(f"{left} x {right}: holds={v.holds} over {v.substitutions_checked} substitutions")

print("\n=== wreath products: [[[x, a], a], b] = 1 ===")
for k, base in [(2, il.cyclic(2)), (2, il.symmetric(3)), (3, il.cyclic(2))]:
    data = il.wreath_product(k, base)
    G = data.group
    a = next(e for e in data.first_factor if not G.is_identity(e))
    b = next(e for e in data.rest_factor if not G.is_identity(e))
    w = mw.left_normed([mw.variable(G)] + [mw.constant(G, c) for c in (a, a, b)])
    print(f"{base.name} wr C{k} (order {G.size}):", il.is_mixed_identity(w, G).holds)

print("\nover a nonabelian base the single commutator is not enough:")
S3 = il.symmetric(3)
data = il.wreath_product(2, S3)
G = data.group
a = data.first_factor[S3.element_by_label("(23)")]
b = data.rest_factor[S3.element_by_label("(23)")]
w = mw.left_normed([mw.variable(G), mw.constant(G, a), mw.constant(G, b)])
v = il.is_mixed_identity(w, G)
print(f"[[x,a],b] on S3 wr C2: holds={v.holds}, "
      f"counterexample x = {G.render_element(v.counterexample[1])}")

print("\n=== a finite normal subgroup N forces [x^{|N|!}, g] = 1 ===")
S4 = il.small_group("S4")
N = S4.closure([S4.element_by_label("(12)(34)"), S4.element_by_label("(13)(24)")])
g = S4.element_by_label("(12)(34)")
print("S4 with N = V4, n! = 24:", il.factorial_identity_check(S4, N, g))

print("\n=== the lamplighter C2 wr Z, as the abelian limit group ===")
# c = (1,1,...): A = direct sum of Z/2 copies, G = C2 wr Z; lamp patterns are
# finitely supported words, the shift is t
L = LimitGroup(2, "1", max_window_width=12)
a = L.generator(0)    # the lamp at position 0
b = L.generator(1)    # a lamp in the complementary factor of the base
word = mw.left_normed([mw.variable(L)] + [mw.constant(L, c) for c in (a, a, b)])
rng = random.Random(0)
samples = 0
for _ in range(500):
    lamps = [(rng.randint(-2, 2), 1) for _ in range(rng.randint(0, 5))]
    x = L.element(lamps, rng.randint(-2, 2))
    assert evaluate(word, {1: x}).is_trivial()
    samples += 1
print(f"[[[x,a],a],b] = 1 on {samples} bounded-support elements "
      "(sampled: the group is infinite, so this is evidence, not a proof)")
