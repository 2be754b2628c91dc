"""Speaker verification evaluation toolkit.

Trial and embedding I/O, log-Mel features, audio augmentation, margin-loss
and pooling math with analytic gradients, cosine/AS-Norm/MSA scoring,
EER/minDCF metrics, logistic-regression fusion, and a pipeline CLI.

Importing the package loads no submodule and no numpy, so `svkit
--version` reads the version and the file magics from here alone.
"""

__version__ = "0.1.0"

EMB_MAGIC = b"EMB1"  # the embedding store (store.write_embeddings)
MEL_MAGIC = b"MEL1"  # the feature dump (features.write_mel)
