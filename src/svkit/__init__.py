"""Speaker verification evaluation toolkit.

Trial and embedding I/O, log-Mel features, audio augmentation, margin-loss
and pooling math with analytic gradients, cosine/AS-Norm/MSA scoring,
EER/minDCF metrics, logistic-regression fusion, and a pipeline CLI.
"""

from .features import MEL_MAGIC
from .trials import EMB_MAGIC

__version__ = "0.1.0"

EMB_FORMAT_VERSION = EMB_MAGIC.decode()
MEL_FORMAT_VERSION = MEL_MAGIC.decode()
