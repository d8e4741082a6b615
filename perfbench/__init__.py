"""Layered host-time benchmark of the SGX EPC simulator (see ``run.py``)."""
