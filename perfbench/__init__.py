"""End-to-end benchmark of the GeoAlign reproduction (see README.md).

Importing this package loads nothing heavy: ``run.py`` must pin BLAS
threading before numpy is imported.
"""
