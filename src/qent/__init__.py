"""Desk-scale bench for multi-qubit entanglement detection.

Synthesizes labeled quantum states (pure, mixed, and bound-entangled),
trains convolutional classifiers to predict per-bipartition entanglement,
and scores them against the exact partial-transpose negativity.
"""

from .qcore import (
    hermitian_eigenvalues,
    kron_all,
    num_qubits,
    partial_trace,
    permute_qubits,
    validate_density_matrix,
)
from .stategen import (
    CircuitSpec,
    apply_gate,
    cu_gate,
    ghz_state,
    haar_state,
    kron_separable_mixed,
    mix_states,
    random_circuit_state,
    randomize_local,
    traced_mixed_state,
    u_gate,
    w_state,
)
from .entanglement import (
    NPT_THRESHOLD,
    Bipartition,
    acin_state,
    enumerate_bipartitions,
    horodecki_state,
    label_by_negativity,
    label_weakly,
    negativity,
    negativity_vector,
    num_bipartitions,
    partial_transpose,
    permuted_bipartition_index,
    upb_state,
)
from .dataset import (
    Dataset,
    DatasetManifest,
    LabeledState,
    Provenance,
    build_pptes_extension,
    build_pptes_testset,
    build_test_sets,
    build_training_set,
    build_validation_set,
    load_dataset,
    save_dataset,
)
from .model import (
    ArchConfig,
    CnnClassifier,
    TrainConfig,
    build_cnn,
    cnn_loss,
    load_model,
    predict,
    save_model,
    siamese_loss,
)
from .harness import (
    MetricsReport,
    combined_classify,
    evaluate_accuracy,
    train_model,
    transition_analysis,
)
from .rng import seeded_rng

__version__ = "0.1.0"
