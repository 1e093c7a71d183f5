/*
 * Sampling kernel for scripted policies.
 *
 * Two entries share one query layout (see read_query):
 *   scripted_decision  the fused two-stage smoothed decision, mirroring
 *                      smoothing.smoothed_decision_detail;
 *   sample_outputs     m perturbed policy outputs from stream index
 *                      start_index on, mirroring smoothing.sample_policy
 *                      (certification draws its samples here).
 *
 * Both mirror, operation for operation, the pure path: core.Stream draws and
 * policy.evaluate_policy / policy.hallucinate_wrap arithmetic. Outputs are
 * bit-identical to the Python implementation; the parity tests enforce that.
 * Any change here must be made in the Python reference as well.
 *
 * Bit-identity also depends on the compiler rounding every multiply and add
 * separately, as Python does: build with -ffp-contract=off and never with
 * -ffast-math (see setup.py).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;

static const double INV_2_53 = 1.0 / 9007199254740992.0;
static const double TWO_PI = 6.283185307179586;
static const u64 GAMMA = 0x9E3779B97F4A7C15ULL;

/* ---- counter-addressed stream primitives (core.mix64 and friends) ---- */

static inline u64 c_mix64(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline u64 c_fold(u64 h, u64 w) { return c_mix64((h * GAMMA) ^ c_mix64(w)); }

static inline u64 c_word_at(u64 key, u64 i) { return c_mix64(key + (i + 1) * GAMMA); }

static inline double c_uniform_at(u64 key, u64 i)
{
    return (double)(c_word_at(key, i) >> 11) * INV_2_53;
}

typedef struct {
    u64 key;
    u64 cursor;
} CStream;

static inline double stream_uniform(CStream *s)
{
    double u = c_uniform_at(s->key, s->cursor);
    s->cursor += 1;
    return u;
}

/* Box-Muller, cosine branch only, so every draw stays slot-addressable. */
static inline double stream_gaussian(CStream *s)
{
    double u1 = c_uniform_at(s->key, s->cursor);
    double u2 = c_uniform_at(s->key, s->cursor + 1);
    s->cursor += 2;
    double r = sqrt(-2.0 * log(1.0 - u1));
    return r * cos(TWO_PI * u2);
}

static inline double clamp1(double x, double lo, double hi)
{
    if (x < lo)
        return lo;
    if (x > hi)
        return hi;
    return x;
}

static int cmp_double(const void *a, const void *b)
{
    double x = *(const double *)a;
    double y = *(const double *)b;
    return (x > y) - (x < y);
}

/* ---- the policy query ---- */

typedef struct {
    const double *own, *nbrs, *target, *lo, *hi;
    int k, d, mimic, mode;
    double w, jitter_sd, p_h, magnitude, sigma;
} Query;

/* One perturbed, hallucination-wrapped policy query. scratch holds
 * (k + 2) * d doubles: perturbed own, perturbed neighbors, base output. */
static void eval_sample(const Query *q, CStream *stream, double *out, double *scratch)
{
    const int k = q->k, d = q->d;
    double *p_own = scratch;
    double *p_nbrs = scratch + d;
    double *base = scratch + (size_t)(k + 1) * d;
    int c, j, halluc = 0;

    for (c = 0; c < d; c++)
        p_own[c] = clamp1(q->own[c] + q->sigma * stream_gaussian(stream), q->lo[c], q->hi[c]);
    for (j = 0; j < k; j++)
        for (c = 0; c < d; c++)
            p_nbrs[j * d + c] = clamp1(q->nbrs[j * d + c] + q->sigma * stream_gaussian(stream),
                                       q->lo[c], q->hi[c]);

    if (q->p_h > 0.0 && stream_uniform(stream) < q->p_h)
        halluc = 1;

    if (halluc && q->mode == 1) { /* uniform-random over the domain */
        for (c = 0; c < d; c++)
            out[c] = q->lo[c] + (q->hi[c] - q->lo[c]) * stream_uniform(stream);
        return;
    }
    if (halluc && q->mode == 2) { /* fixed-target */
        for (c = 0; c < d; c++)
            out[c] = clamp1(q->target[c], q->lo[c], q->hi[c]);
        return;
    }

    /* base policy evaluation (needed both for the honest branch and large-jump) */
    if (k == 0) {
        for (c = 0; c < d; c++)
            base[c] = p_own[c];
    } else {
        for (c = 0; c < d; c++) {
            double acc = 0.0;
            for (j = 0; j < k; j++)
                acc += p_nbrs[j * d + c];
            base[c] = q->w * p_own[c] + (1.0 - q->w) * (acc / k);
        }
        if (q->mimic)
            for (c = 0; c < d; c++)
                base[c] = base[c] + q->jitter_sd * stream_gaussian(stream);
        for (c = 0; c < d; c++)
            base[c] = clamp1(base[c], q->lo[c], q->hi[c]);
    }

    if (!halluc) {
        for (c = 0; c < d; c++)
            out[c] = base[c];
        return;
    }

    /* large-jump: displace the base output by +-magnitude per component */
    for (c = 0; c < d; c++) {
        double sign = stream_uniform(stream) < 0.5 ? 1.0 : -1.0;
        out[c] = clamp1(base[c] + sign * q->magnitude, q->lo[c], q->hi[c]);
    }
}

/* Samples start .. start + count - 1 of the branch `prefix` into samples[0 .. count). */
static void sample_range(const Query *q, u64 prefix, u64 start, size_t count, double *samples,
                         double *scratch)
{
    CStream stream;
    for (size_t s = 0; s < count; s++) {
        stream.key = c_fold(prefix, start + (u64)s);
        stream.cursor = 0;
        eval_sample(q, &stream, samples + s * (size_t)q->d, scratch);
    }
}

/* Two-stage smoothed decision: writes the trimmed mean to out and the probe
 * variance to *variance, returns the extra sample count m2. work holds
 * (m1 + m_max) * (d + 1) + (k + 3) * d doubles. */
static int smoothed(const Query *q, u64 prefix, int m1, double cc, double tau, int m_max,
                    double trim_frac, double *work, double *out, double *variance)
{
    const int d = q->d;
    const size_t m_cap = (size_t)m1 + (size_t)m_max;
    double *samples = work;
    double *scratch = samples + m_cap * d;
    double *means = scratch + (size_t)(q->k + 2) * d;
    double *column = means + d;
    double acc, v;
    int c, s, m2;

    /* stage 1: probe */
    sample_range(q, prefix, 0, (size_t)m1, samples, scratch);

    /* probe variance, biased 1/m1 normalization */
    for (c = 0; c < d; c++) {
        acc = 0.0;
        for (s = 0; s < m1; s++)
            acc += samples[s * d + c];
        means[c] = acc / m1;
    }
    acc = 0.0;
    for (s = 0; s < m1; s++)
        for (c = 0; c < d; c++) {
            double diff = samples[s * d + c] - means[c];
            acc += diff * diff;
        }
    v = acc / m1;
    *variance = v;

    /* stage 2 budget: min(ceil(c*V/tau), m_max), zero for a dead-quiet probe.
     * Comparing before the cast keeps a huge ratio from overflowing int. */
    if (v == 0.0) {
        m2 = 0;
    } else {
        double ratio = (cc * v) / tau;
        m2 = ratio < (double)m_max ? (int)ceil(ratio) : m_max;
    }
    sample_range(q, prefix, (u64)m1, (size_t)m2, samples + (size_t)m1 * d, scratch);

    /* component-wise trimmed mean */
    const int m = m1 + m2;
    const int g = (int)(trim_frac * m);
    const int kept = m - 2 * g;
    for (c = 0; c < d; c++) {
        for (s = 0; s < m; s++)
            column[s] = samples[s * d + c];
        qsort(column, (size_t)m, sizeof(double), cmp_double);
        acc = 0.0;
        for (s = g; s < m - g; s++)
            acc += column[s];
        out[c] = acc / kept;
    }
    return m2;
}

/* ---- Python entry points ---- */

/* Copy exactly n floats out of a Python sequence. */
static int read_doubles(PyObject *obj, const char *name, Py_ssize_t n, double *dst)
{
    PyObject *seq = PySequence_Fast(obj, "kernel vector arguments must be sequences");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "%s must hold %zd values, got %zd", name, n,
                     PySequence_Fast_GET_SIZE(seq));
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        dst[i] = PyFloat_AsDouble(items[i]);
        if (dst[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

static int read_u64(PyObject *obj, u64 *out)
{
    unsigned long long v = PyLong_AsUnsignedLongLong(obj);
    if (v == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = (u64)v;
    return 0;
}

static PyObject *py_mix64(PyObject *self, PyObject *arg)
{
    u64 z;
    if (read_u64(arg, &z) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_mix64(z));
}

static int read_u64_pair(PyObject *args, const char *fname, u64 *a, u64 *b)
{
    PyObject *x, *y;
    if (!PyArg_UnpackTuple(args, fname, 2, 2, &x, &y))
        return -1;
    return (read_u64(x, a) < 0 || read_u64(y, b) < 0) ? -1 : 0;
}

static PyObject *py_fold(PyObject *self, PyObject *args)
{
    u64 h, w;
    if (read_u64_pair(args, "fold", &h, &w) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_fold(h, w));
}

static PyObject *py_word_at(PyObject *self, PyObject *args)
{
    u64 key, i;
    if (read_u64_pair(args, "word_at", &key, &i) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(c_word_at(key, i));
}

static PyObject *py_uniform_at(PyObject *self, PyObject *args)
{
    u64 key, i;
    if (read_u64_pair(args, "uniform_at", &key, &i) < 0)
        return NULL;
    return PyFloat_FromDouble(c_uniform_at(key, i));
}

/* Parse a query tuple
 *   (own, nbrs_flat, k, d, w, mimic, jitter_sd, p_h, mode, magnitude, target, lo, hi, sigma)
 * into q. Its vectors are copied into one block, returned for PyMem_Free, so q
 * stays valid with the GIL released. NULL with an exception set on failure. */
static double *read_query(PyObject *tuple, Query *q)
{
    PyObject *own_obj, *nbrs_obj, *target_obj, *lo_obj, *hi_obj;

    if (!PyArg_ParseTuple(tuple, "OOiididdidOOOd:query", &own_obj, &nbrs_obj,
                          &q->k, &q->d, &q->w, &q->mimic, &q->jitter_sd, &q->p_h, &q->mode,
                          &q->magnitude, &target_obj, &lo_obj, &hi_obj, &q->sigma))
        return NULL;
    if (q->k < 0 || q->d < 1) {
        PyErr_SetString(PyExc_ValueError, "query needs k >= 0 and d >= 1");
        return NULL;
    }

    const size_t k = (size_t)q->k, d = (size_t)q->d;
    /* own, target, lo, hi: d each; neighbors: k*d */
    double *buf = PyMem_New(double, 4 * d + k * d);
    if (buf == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    double *own = buf, *target = own + d, *lo = target + d, *hi = lo + d, *nbrs = hi + d;
    if (read_doubles(own_obj, "own", q->d, own) < 0 ||
        read_doubles(nbrs_obj, "nbrs_flat", (Py_ssize_t)q->k * q->d, nbrs) < 0 ||
        read_doubles(target_obj, "target", q->d, target) < 0 ||
        read_doubles(lo_obj, "lo", q->d, lo) < 0 || read_doubles(hi_obj, "hi", q->d, hi) < 0) {
        PyMem_Free(buf);
        return NULL;
    }
    q->own = own;
    q->nbrs = nbrs;
    q->target = target;
    q->lo = lo;
    q->hi = hi;
    return buf;
}

static PyObject *py_scripted_decision(PyObject *self, PyObject *args)
{
    PyObject *query, *prefix_obj;
    Query q;
    int m1, m_max;
    double cc, tau, trim_frac;
    u64 prefix;

    if (!PyArg_ParseTuple(args, "O!iddidO:scripted_decision", &PyTuple_Type, &query, &m1, &cc,
                          &tau, &m_max, &trim_frac, &prefix_obj))
        return NULL;
    if (read_u64(prefix_obj, &prefix) < 0)
        return NULL;
    if (m1 < 1 || m_max < 0 || !(trim_frac >= 0.0 && trim_frac < 0.5)) {
        PyErr_SetString(PyExc_ValueError,
                        "need m1 >= 1, m_max >= 0 and 0 <= trim_frac < 0.5");
        return NULL;
    }
    double *qbuf = read_query(query, &q);
    if (qbuf == NULL)
        return NULL;

    const size_t k = (size_t)q.k, d = (size_t)q.d, m_cap = (size_t)m1 + (size_t)m_max;
    /* out: d; then the work area */
    double *buf = PyMem_New(double, d + m_cap * (d + 1) + (k + 3) * d);
    PyObject *value = NULL, *result = NULL;
    double variance;
    int m2;

    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *out = buf, *work = out + d;

    Py_BEGIN_ALLOW_THREADS
    m2 = smoothed(&q, prefix, m1, cc, tau, m_max, trim_frac, work, out, &variance);
    Py_END_ALLOW_THREADS

    value = PyList_New(q.d);
    if (value == NULL)
        goto done;
    for (int c = 0; c < q.d; c++) {
        PyObject *x = PyFloat_FromDouble(out[c]);
        if (x == NULL) {
            Py_CLEAR(value);
            goto done;
        }
        PyList_SET_ITEM(value, c, x);
    }
    result = Py_BuildValue("(Ndi)", value, variance, m2);

done:
    PyMem_Free(buf);
    PyMem_Free(qbuf);
    return result;
}

static PyObject *py_sample_outputs(PyObject *self, PyObject *args)
{
    PyObject *query, *start_obj, *prefix_obj;
    Py_ssize_t m;
    Query q;
    u64 start, prefix;

    if (!PyArg_ParseTuple(args, "O!nOO:sample_outputs", &PyTuple_Type, &query, &m, &start_obj,
                          &prefix_obj))
        return NULL;
    if (read_u64(start_obj, &start) < 0 || read_u64(prefix_obj, &prefix) < 0)
        return NULL;
    if (m < 0) {
        PyErr_SetString(PyExc_ValueError, "need m >= 0");
        return NULL;
    }
    double *qbuf = read_query(query, &q);
    if (qbuf == NULL)
        return NULL;

    const size_t k = (size_t)q.k, d = (size_t)q.d;
    /* samples: m*d; then eval_sample's scratch */
    double *buf = PyMem_New(double, (size_t)m * d + (k + 2) * d);
    PyObject *result = NULL;

    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *samples = buf, *scratch = samples + (size_t)m * d;

    Py_BEGIN_ALLOW_THREADS
    sample_range(&q, prefix, start, (size_t)m, samples, scratch);
    Py_END_ALLOW_THREADS

    result = PyTuple_New(m);
    if (result == NULL)
        goto done;
    for (Py_ssize_t s = 0; s < m; s++) {
        PyObject *vec = PyTuple_New(q.d);
        if (vec == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(result, s, vec);
        for (int c = 0; c < q.d; c++) {
            PyObject *x = PyFloat_FromDouble(samples[(size_t)s * d + c]);
            if (x == NULL) {
                Py_CLEAR(result);
                goto done;
            }
            PyTuple_SET_ITEM(vec, c, x);
        }
    }

done:
    PyMem_Free(buf);
    PyMem_Free(qbuf);
    return result;
}

static PyMethodDef fast_methods[] = {
    {"mix64", py_mix64, METH_O, "SplitMix64 finalizer; twin of core.mix64."},
    {"fold", py_fold, METH_VARARGS, "fold(h, w); twin of core.fold."},
    {"word_at", py_word_at, METH_VARARGS, "word_at(key, i); twin of core.word_at."},
    {"uniform_at", py_uniform_at, METH_VARARGS, "uniform_at(key, i); twin of core.uniform_at."},
    {"scripted_decision", py_scripted_decision, METH_VARARGS,
     "scripted_decision(query, m1, c, tau, m_max, trim_frac, prefix)\n\n"
     "Two-stage smoothed decision over the scripted policy.\n"
     "Returns (value list, probe variance, extra sample count)."},
    {"sample_outputs", py_sample_outputs, METH_VARARGS,
     "sample_outputs(query, m, start_index, prefix)\n\n"
     "Perturbed outputs of the scripted policy for stream indices\n"
     "start_index .. start_index + m - 1: a tuple of m d-tuples."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast",
    "Sampling kernel for scripted policies, bit-identical to the pure-Python path.",
    -1, fast_methods,
};

PyMODINIT_FUNC PyInit__fast(void) { return PyModule_Create(&fast_module); }
