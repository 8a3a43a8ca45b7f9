"""Standalone benchmark of the MOON simulator (see ``run.py``)."""
