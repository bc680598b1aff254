"""Point-cloud registration toolkit built around Mahalanobis k-NN graphs."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CorrespondenceSet,
    PointCloud,
    RigidMotion,
    apply,
    compose,
    identity_motion,
    invert,
    kabsch,
    make_rigid,
    sample_rigid,
)
from .statistics import (  # noqa: F401
    CovarianceModel,
    estimate_covariance,
    identity_model,
    mahalanobis_distance,
)
from .neighborhood import (  # noqa: F401
    NeighborGraph,
    build_graph,
    floyd_warshall,
    knn,
    knn_geodesic,
)
from .descriptors import (  # noqa: F401
    edgeconv_features,
    eigen_features,
    kmeans,
    pose_eigen_features,
)
from .registration import (  # noqa: F401
    RegistrationConfig,
    RegistrationResult,
    match_descriptors,
    register,
)
from .corruption import NoiseSpec, corrupt  # noqa: F401
from .evaluation import PoseError, SetDistance, pose_error, set_distance  # noqa: F401
