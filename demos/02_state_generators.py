"""The state generators behind the corpus, and the three labeling strategies.

Shows a random gate circuit and its connectivity, uniform (Haar) sampling,
explicit mixtures, partial-trace mixtures, and how the same traced state is
labeled by the negativity / verified / weak strategies.
"""

import numpy as np

from qent import (
    NPT_THRESHOLD,
    haar_state,
    label_by_negativity,
    label_weakly,
    mix_states,
    random_circuit_state,
    traced_mixed_state,
)
from qent.stategen import random_probs

rng = np.random.default_rng(7)

print("== Random gate circuit ==")
psi, circuit = random_circuit_state(3, entangling=True, rng=rng)
n_cu = int(np.count_nonzero(circuit.controls >= 0))
print(f"{len(circuit.targets)} gates ({len(circuit.targets) - n_cu} local, {n_cu} controlled)")
print("entangling pairs:", sorted(tuple(sorted(p)) for p in circuit.cu_pairs))
labels, negs = label_by_negativity(np.outer(psi, psi.conj()))
print("per-cut negativities:", np.round(negs, 4), "-> labels", labels)

print("\n== Haar sampling ==")
psi = haar_state(3, rng)
print("norm:", np.linalg.norm(psi), " mean |amplitude|^2:", np.mean(np.abs(psi) ** 2))

print("\n== Explicit mixture of pure states ==")
d = 4
probs = random_probs(d, rng)
rho = mix_states(probs, [haar_state(3, rng) for _ in range(d)])
print(f"d={d} weights {np.round(probs, 3)} trace {np.trace(rho).real:.6f}")
print("negativities:", np.round(label_by_negativity(rho)[1], 4))

print("\n== Partial-trace mixture and the labeling strategies ==")
for _ in range(5):
    rho, circuit = traced_mixed_state(3, 1, rng)
    neg_labels, negs = label_by_negativity(rho)
    weak_labels, _ = label_weakly(rho, circuit, range(3))
    certified = neg_labels.all()
    print(
        f"negativity labels {neg_labels}  weak labels {weak_labels}  "
        f"verified keeps it: {bool(certified)}"
    )
    if not np.array_equal(neg_labels, weak_labels):
        ppt_cuts = np.where(negs <= NPT_THRESHOLD)[0]
        print(f"  weak strategy upgraded inconclusive cut(s) {ppt_cuts} via connectivity")
