"""Numpy layers (``layers``), losses (``losses``) and the Adam optimizer (``optim``)."""
