"""kframelab: a numerical laboratory for continuous K-frames on
discretized measure spaces.

Frames are sampled vector fields over finitely many weighted atoms; the
package builds their analysis, synthesis and frame operators, canonical
duals through operator pseudo-inverses, and verifies the structural
identities of the theory as tolerance-checked, seeded property suites.
"""

# These modules export their whole ``__all__``; the last three only the
# names a caller needs (the rest serve the suite runner and the benchmark).
from .hilbert import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .frames import *  # noqa: F401,F403
from .duality import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_dict
from .suites import DEFAULT_TOLERANCES, PROPERTY_IDS, UnknownPropertyError, run_suite
from .report import PropertyRecord, SuiteReport, emit_report, render_text, report_to_dict

__version__ = "0.1.0"
