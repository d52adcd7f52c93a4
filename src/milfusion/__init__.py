"""Multimodal multiple-instance bag classifier.

Attention pooling over per-instance embeddings, dual supervised attention on
the cine branch, gated fusion of the two modality representations, and a
curriculum pseudo-labeling loop for semi-supervised training — validated on
synthetic bag datasets with planted, recoverable class signal.
"""

__version__ = "0.1.0"
