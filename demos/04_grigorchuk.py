"""The Grigorchuk group: tree action, exact word problem, and its mixed identity.

The four generators act on binary strings by a small automaton; words in
the first-level stabilizer split into two shorter words, which decides
the word problem exactly.  The group is amenable but not elementary
amenable, and still satisfies a nontrivial mixed identity.
"""

from miflab import grigorchuk as gg

print("=== the action on binary strings ===")
for word, s in [("a", "0110"), ("b", "10"), ("d", "0111"), ("abab", "0000")]:
    print(f"{word:5s} sends {s} to {gg.act(word, s)}")

print("\n=== reduction and the Klein relations ===")
for w in ["bb", "bc", "abcda", "badc"]:
    print(f"{w:6s} reduces to {gg.reduce_word(w)!r}")

print("\n=== first-level splitting ===")
for w in ["b", "c", "d", "aba", "aca", "ada", "bada"]:
    left, right = gg.split(w)
    print(f"{w:5s} -> ({left or '1'}, {right or '1'})")

print("\n=== the word problem, with the action as a cross-check ===")
for w in ["adadadad", "adad", "abab", "bcd"]:
    verdict = gg.is_trivial(w)
    line = f"{w:9s} trivial={verdict}"
    if not verdict:
        line += f"  moved string: {gg.find_moved_string(w)}"
    print(line)

print("\n=== the mixed identity [[[[x, b], d], d], ada] = 1 ===")
for max_len in (4, 6, 8):
    report = gg.verify_grig_identity(max_len)
    print(f"all reduced words of length <= {max_len}: "
          f"{report.words_checked} covered by {report.elements_checked} elements, "
          f"{len(report.violations)} violations")
