"""Observement: measurement-style formal systems for non-numeric observations.

Objects map to structured observations (symbol strings, graphs, kinship
digraphs) through algorithms whose representation, existence, and uniqueness
conditions are checked mechanically.  Numeric measurement is the special case
where the observations are numbers.
"""

__version__ = "0.1.0"
