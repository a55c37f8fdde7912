"""Witness search with machine-checkable certificates.

Single-variable words over {x, a_0, t} and their inverses are enumerated
shortlex; for each word the driver looks for an element g with w(g)
nontrivial, trying candidates with small support first.  Certificates
are JSON lines that an independent pass re-checks from scratch.
"""

import io

from miflab import LimitGroup, parse_mixed_word
from miflab import mif_search as ms

G = LimitGroup(2, "n")

print("=== the word enumeration ===")
words = ms.enumerate_words(G, 12)
print("first 12 words:", ", ".join(w.render() for w in words))

print("\n=== single searches ===")
for text in ["x", "x^2", "[x, t]", "[x, a0]", "x a0 x a0"]:
    result = ms.find_witness(parse_mixed_word(text, G), ms.SearchBounds())
    print(f"{text:10s} -> {result.status}: witness {result.witness.render():6s} "
          f"after {result.candidates_tried} candidates")

print("\n=== the certificate-producing driver ===")
run = ms.drive(G, 15)
witnessed = sum(cert.status == ms.WITNESS_FOUND for cert in run.certificates)
print(f"complete: {run.complete}; witness set size: {witnessed}")
for cert in run.certificates[:8]:
    print(f"  word {cert.word:10s} witness {cert.witness}")

print("\n=== independent verification ===")
buf = io.StringIO()
ms.write_certificates(run, G, buf)
report = ms.verify_certificates(buf.getvalue())
print(f"re-checked {report.checked} certificates, failures: {len(report.failures)}")

print("\n=== forged certificates are caught ===")
forged = buf.getvalue().replace('"witness":"a0"', '"witness":"1"', 1)
report = ms.verify_certificates(forged)
print(f"after forging one witness: failures = "
      f"{[(line, reason) for line, reason in report.failures]}")
