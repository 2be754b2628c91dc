"""The toy embedding model. The package imports none of its modules, so a
command loads only those it names: `losses` and `pooling` (float64 numpy
with analytic gradients, checked against finite differences), `embedder`
(a seeded toy extractor standing in for a trained network) and `shapes`
(stride planning in plain integers).
"""
