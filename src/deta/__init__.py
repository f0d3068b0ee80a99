"""Noise-robust few-shot task adaptation on pre-extracted features.

Support regions and images are weighted by contrastive relevance, two
weighted contrastive losses adapt a residual feature adapter plus projection
head at test time, and inference uses a weighted nearest-centroid classifier
built from the adapted features.

Callers import from the modules (`deta.adaptation`, `deta.harness`, ...);
the package itself re-exports nothing.
"""
