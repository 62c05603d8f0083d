"""Pinned seeded outputs of the shot layer.

Every value below is an exact float recorded from the shot estimators at a
fixed master seed. The same seed must keep giving the same bytes; a change to
the stream keys, the draw order, the tent sampler or the outcome rule has to
update these values on purpose and say so in the change log.
"""

from qbmgeo import FISHER_BURES, KUBO_MORI, ParamHamiltonian, ShotConfig, estimate_matrix
from qbmgeo.natgrad import GroundEnergyLoss, TrainConfig, train
from qbmgeo.shot_estimators import estimate_element

# neither Hamiltonian has a time-reversal symmetry, so the interference means
# are not even in t, and a kernel that evaluates m(-t) for m(t) changes these
H = ParamHamiltonian(["ZZI", "XIX", "IYZ", "YZX"], [0.4, -0.7, 0.9, 0.3])
CFG = ShotConfig(epsilon=0.1, delta=0.05, master_seed=2024)

GOLDEN_FB = [
    [0.3685636856368564, 0.06775067750677506, -0.050135501355013545, -0.023035230352303523],
    [0.06775067750677506, 0.3333333333333333, 0.09349593495934959, 0.04336043360433604],
    [-0.050135501355013545, 0.09349593495934959, 0.37127371273712734, 0.037940379403794036],
    [-0.023035230352303523, 0.04336043360433604, 0.037940379403794036, 0.6937669376693767],
]
GOLDEN_KM = [
    [0.6097560975609756, 0.0934959349593496, -0.11788617886178862, -0.02845528455284553],
    [0.0934959349593496, 0.5176151761517616, 0.15447154471544716, 0.07588075880758807],
    [-0.11788617886178862, 0.15447154471544716, 0.4634146341463415, 0.058265582655826556],
    [-0.02845528455284553, 0.07588075880758807, 0.058265582655826556, 0.8075880758807588],
]
GOLDEN_TRAIN_CSV = [
    "iter,loss,grad_norm,metric_min_eig,metric_cond,theta_0,theta_1,theta_2",
    "0,-0.27680775307355898,0.62119650024227424,0.50973442867962748,1.5200200833681368,"
    "0.40000000000000002,-0.69999999999999996,0.90000000000000002",
    "1,-0.50481329887353765,0.60646961353893258,0.41242982913941456,1.570031033082073,"
    "0.78463466325317499,-0.66661513315743381,0.8937875179777095",
    "2,-0.69453880103354371,0.38947624737559572,0.36610147622945588,1.7952379296976766,"
    "1.1379700297130342,-0.58340891588458132,0.73641114098957228",
    "3,-0.78799060206761751,0.30237150901076371,0.25946137711989681,2.169883408977658,"
    "1.40520551788952,-0.50427482087930531,0.7222281215588382",
]


def test_golden_fb_matrix():
    assert estimate_matrix(H, FISHER_BURES, CFG).matrix.values.tolist() == GOLDEN_FB


def test_golden_km_matrix():
    assert estimate_matrix(H, KUBO_MORI, CFG).matrix.values.tolist() == GOLDEN_KM


def test_golden_element():
    r = estimate_element(H, KUBO_MORI, 1, 3, CFG, stream_prefix=(5,))
    assert (r.value, r.first_term, r.second_term) == (
        0.02168021680216803, -0.07859078590785908, -0.1002710027100271,
    )


def test_golden_shot_training_trace():
    loss = GroundEnergyLoss.from_pauli(["ZZI", "IYZ"], [1.0, -0.5])
    cfg = TrainConfig(eta=0.1, metric=FISHER_BURES, max_iters=3, grad_tol=-1.0,
                      shots=ShotConfig(0.1, 0.05, master_seed=7), tikhonov=0.2)
    trace = train(ParamHamiltonian(["ZZI", "XZX", "YIX"], [0.4, -0.7, 0.9]), loss, cfg)
    assert trace.csv_rows() == GOLDEN_TRAIN_CSV
