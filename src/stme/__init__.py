"""Regional return-value estimation for cyclone-induced significant wave
height using space-time maxima and per-location exposures.

The top level holds the names the README's Library section calls as
`stme.<name>`; every other name is reached through its module, for example
`stme.evd.fit_gpd_mle` or `stme.diagnostics.tau_map`."""

__version__ = "0.1.0"

from .catalog import RegionSpec, load_catalog
from .evd import fit_gpd_rows
from .returns import return_values, run_stme
from .experiments import CellTable, run_experiment, summarize
