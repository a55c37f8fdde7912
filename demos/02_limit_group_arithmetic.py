"""Exact arithmetic in A and G = A ⋊ <t>.

Every element of G has the normal form a * t^beta; the stable letter t
shifts generator indices, and all equality and order questions reduce to
finite window groups.  The final section proves the disjointness
H ∩ (shifted H) = {1} that rules out finite normal subgroups.
"""

from miflab import INFINITE, LimitGroup

G = LimitGroup(2, "n")  # the default group: p = 2, c_n = n
a0, a1, t = G.generator(0), G.generator(1), G.t_power(1)

print("=== normal forms ===")
g = G.parse("a0 t^2 a1")
print("a0 t^2 a1  ->", g.render(), "   (t^2 a1 t^-2 = a3)")
print("t a0 t^-1  ->", (t * a0 * t.inverse()).render())

print("\n=== triviality is decided in window groups ===")
print("[a0, a1] trivial:", G.parse("[a0, a1]").is_trivial(), "  (adjacent letters commute, c_1 = 1)")
print("[a0, a2] trivial:", G.parse("[a0, a2]").is_trivial(), "  (spread 2 only dies at weight 3)")
print("a0 a-1 trivial:", (a0 * G.generator(-1)).is_trivial())

print("\n=== orders ===")
for text in ["1", "a0", "a0 a1", "t", "a0 t"]:
    g = G.parse(text)
    order = g.order()
    print(f"order({text}) = {'Infinite' if order == INFINITE else order}")

print("\n=== the abelianization oracle ===")
for text in ["a0 a1 a1", "[a0, a2]", "[a0, t]", "a0 t"]:
    g = G.parse(text)
    img = g.abelianize()
    print(f"{text:12s} -> kind={img.kind:12s} vector={img.vector} total={img.total} beta={img.beta}")
print("beta = 0 puts an element in A, whose abelianization is the sum of the C_p")
print("on the a_i, so a nonzero vector proves nontriviality; a zero image proves nothing")

print("\n=== no finite normal subgroups: H ∩ t^-(2N+1) H t^(2N+1) = 1 ===")
print("For H <= B([-N,N]) the shifted copy lies in B([N+1,3N+1]).  Deleting the")
print("letters a_{N+1}, ..., a_{3N+1} maps every relator of B([-N,3N+1]) to 1 or to a")
print("relator of B([-N,N]), so it is a retraction onto B([-N,N]): it fixes H and")
print("kills the shifted copy, and an element of both is 1.")
H = LimitGroup(2, "1,2")
print("B([-1,1]) order:", H.table_for_width(2).coset_count)
