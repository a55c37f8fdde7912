"""Window groups: presentations, coset enumeration, exact orders.

The locally finite p-group A is assembled from finite windows
B([lo, hi]) = <a_lo, ..., a_hi>.  Each window group is presented by the
power relators a_i^p and by left-normed commutator relators whose weight
is set by the class-bound sequence c at the tuple's spread.  This script
builds a few windows, prints their presentations and enumerates their
orders.
"""

from miflab import Window, build_window_presentation, enumerate_presentation

print("=== the smallest window: one generator ===")
pres = build_window_presentation(2, "1", Window(0, 0))
print(pres.to_text())
print("order:", enumerate_presentation(pres).coset_count)

print("=== two generators, class bound 1: the Klein four group ===")
pres = build_window_presentation(2, "1", Window(0, 1))
print(pres.to_text())
print("order:", enumerate_presentation(pres).coset_count)

print("=== p = 3 with class bound 2: the Heisenberg group over F_3 ===")
pres = build_window_presentation(3, "2", Window(0, 1))
print(pres.to_text())
table = enumerate_presentation(pres)
print("order:", table.coset_count)
# tables read column words: a_i is column 2i and its inverse 2i + 1, so
# [a_0, a_1] = a_0^-1 a_1^-1 a_0 a_1 is (1, 3, 0, 2)
comm = (1, 3, 0, 2)
print("order of [a_0, a_1]:", table.element_order(comm))

print("=== how fast the windows grow: p = 2, c_n = n ===")
for width in range(4):
    pres = build_window_presentation(2, "n", Window(0, width))
    table = enumerate_presentation(pres)
    print(f"width {width}: {len(pres.relators):4d} relators, order {table.coset_count}")
print("(width 4 already exceeds a million cosets; the engine refuses loudly)")

print("=== capped class bounds keep wider windows tractable: c = (1,2) ===")
for width in range(6):
    pres = build_window_presentation(2, "1,2", Window(0, width))
    print(f"width {width}: order {enumerate_presentation(pres).coset_count}")
