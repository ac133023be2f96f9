from .parse import make_parse_fn, apply_parse, PARSED_SCHEMA  # noqa: F401
from .enrich import EnrichStage, apply_enrich  # noqa: F401
from .route import make_route_fn, apply_route  # noqa: F401
