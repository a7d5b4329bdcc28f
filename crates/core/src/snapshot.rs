//! Model snapshots: the save/reload half of the serving model lifecycle.
//!
//! A trained [`Localizer`] is expensive to produce — site surveys and
//! training runs dwarf inference cost — so serving systems treat models as
//! managed artifacts. This module defines that artifact:
//!
//! - [`ModelSnapshot`] — a versioned, self-describing byte blob: model
//!   kind tag, feature dimension, class metadata, then a kind-specific
//!   payload (network architecture + parameters via
//!   [`noble_nn::save_parameters`], quantizer parts, radio maps).
//! - [`SnapshotLocalizer`] — the capability trait: models that can
//!   serialize themselves implement `snapshot(&self)`. The base
//!   [`Localizer`] trait exposes the same capability dynamically through
//!   [`Localizer::try_snapshot`] so trait objects can be probed.
//! - [`hydrate`] — the factory: turns any snapshot back into a boxed
//!   [`Localizer`] that localizes **bit-identically** to the model that
//!   produced it (pinned by the `snapshot_roundtrip` suite).
//!
//! [`wifi::WifiNoble`](crate::wifi::WifiNoble),
//! [`imu::ImuNoble`](crate::imu::ImuNoble) and
//! [`wifi::KnnFingerprint`](crate::wifi::KnnFingerprint) are
//! snapshotable; the Table II regression baselines are research-only and
//! are not (their [`Localizer::try_snapshot`] returns `None`).
//!
//! Corrupt, truncated or version-skewed blobs decode to the typed
//! [`NobleError::BadSnapshot`] — never a panic, and reader lengths are
//! validated against the remaining byte count so hostile blobs cannot
//! trigger huge allocations.

use crate::{Localizer, NobleError};
use noble_geo::{Grid, Point};
use noble_linalg::Matrix;
use noble_nn::{Activation, Dense, HeadKind, HeadSpec, Mlp, MlpLayerSpec, OutputLayout};
use noble_quantize::{DecodePolicy, GridQuantizer};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"NOBS";
/// Container v2 added the model-version field; v1 blobs (which predate
/// it) still decode, reporting [`ModelSnapshot::version`] `0`.
const CONTAINER_VERSION: u32 = 2;
const LEGACY_CONTAINER_VERSION: u32 = 1;

/// A self-describing serialized model: kind tag, shape metadata, a
/// *model version* (the online-refresh lineage counter — see
/// [`ModelSnapshot::version`]) and a kind-specific payload. Produce one
/// with [`SnapshotLocalizer::snapshot`], persist it through a
/// `noble_serve::ModelStore`, and turn it back into a servable model with
/// [`hydrate`].
///
/// Snapshots are immutable, so clones share one payload buffer: cloning
/// (and thus handing a snapshot to or from a store) costs O(1), however
/// large the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSnapshot {
    kind: String,
    feature_dim: usize,
    class_count: usize,
    version: u64,
    payload: Arc<[u8]>,
}

impl ModelSnapshot {
    /// Assembles a snapshot from its parts (model implementations call
    /// this; consumers use [`hydrate`]).
    pub fn new(
        kind: impl Into<String>,
        feature_dim: usize,
        class_count: usize,
        payload: Vec<u8>,
    ) -> Self {
        ModelSnapshot {
            kind: kind.into(),
            feature_dim,
            class_count,
            version: 0,
            payload: payload.into(),
        }
    }

    /// The same snapshot stamped with model version `version` (builder
    /// style — snapshots are immutable once produced).
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Model version: which generation of this shard's model produced
    /// the snapshot. `0` is the original offline-trained model (and what
    /// legacy v1 containers report); each online refresh activated
    /// through `noble_serve::Refresher` bumps it by one. Serving a
    /// given version is bit-stable, so two snapshots with equal key and
    /// version hold byte-identical payloads.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Model kind tag — matches the producing model's
    /// [`crate::LocalizerInfo::model`] (e.g. `"wifi-noble"`).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Feature-row width the hydrated model will expect.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Quantized class count of the hydrated model (`0` for pure
    /// regressors).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The kind-specific payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Size of [`ModelSnapshot::to_bytes`] output — the byte cost a store
    /// or catalog budget accounts for, without encoding.
    pub fn encoded_len(&self) -> usize {
        // magic + container version + kind (len + bytes) + 2 shape u64s
        // + model version u64 + payload (len + bytes).
        4 + 4 + 4 + self.kind.len() + 8 + 8 + 8 + 8 + self.payload.len()
    }

    /// Encodes the snapshot into one length-validated byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(self.encoded_len());
        w.buf.extend_from_slice(MAGIC);
        w.u32(CONTAINER_VERSION);
        w.string(&self.kind);
        w.u64(self.feature_dim as u64);
        w.u64(self.class_count as u64);
        w.u64(self.version);
        w.bytes(&self.payload);
        w.buf
    }

    /// Decodes a buffer produced by [`ModelSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`NobleError::BadSnapshot`] on bad magic, an unsupported container
    /// version, truncation, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NobleError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(bad("bad magic: not a NObLe model snapshot"));
        }
        let container = r.u32()?;
        if container != CONTAINER_VERSION && container != LEGACY_CONTAINER_VERSION {
            return Err(bad(format!(
                "unsupported snapshot container version {container} \
                 (this build reads {LEGACY_CONTAINER_VERSION}..={CONTAINER_VERSION})"
            )));
        }
        let kind = r.string()?;
        let feature_dim = r.usize()?;
        let class_count = r.usize()?;
        // v1 containers predate the model-version field: read them as
        // version 0 (the offline-trained generation).
        let version = if container == LEGACY_CONTAINER_VERSION {
            0
        } else {
            r.u64()?
        };
        let payload = r.bytes()?.into();
        r.finish()?;
        Ok(ModelSnapshot {
            kind,
            feature_dim,
            class_count,
            version,
            payload,
        })
    }
}

/// The snapshot capability: a trained model that can serialize itself
/// into a [`ModelSnapshot`] whose [`hydrate`]d twin localizes
/// bit-identically.
pub trait SnapshotLocalizer: Localizer {
    /// Serializes the full inference state of the model.
    fn snapshot(&self) -> ModelSnapshot;
}

/// Rebuilds a servable model from a snapshot, dispatching on the kind
/// tag.
///
/// # Errors
///
/// [`NobleError::BadSnapshot`] for an unknown kind tag or a payload that
/// fails validation (truncated, corrupted, version-skewed, or
/// internally inconsistent).
pub fn hydrate(snapshot: &ModelSnapshot) -> Result<Box<dyn Localizer>, NobleError> {
    match snapshot.kind() {
        crate::wifi::WIFI_NOBLE_KIND => {
            Ok(Box::new(crate::wifi::WifiNoble::from_snapshot(snapshot)?))
        }
        crate::wifi::KNN_FINGERPRINT_KIND => Ok(Box::new(
            crate::wifi::KnnFingerprint::from_snapshot(snapshot)?,
        )),
        crate::imu::IMU_NOBLE_KIND => Ok(Box::new(crate::imu::ImuNoble::from_snapshot(snapshot)?)),
        other => Err(bad(format!("unknown model kind tag '{other}'"))),
    }
}

/// Shorthand for the module's typed error.
pub(crate) fn bad(msg: impl Into<String>) -> NobleError {
    NobleError::BadSnapshot(msg.into())
}

// ---------------------------------------------------------------------------
// Byte-level codec. Little-endian throughout, lengths validated on read.
// ---------------------------------------------------------------------------

/// Append-only snapshot payload writer.
pub(crate) struct SnapWriter {
    pub(crate) buf: Vec<u8>,
}

impl SnapWriter {
    pub(crate) fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    fn with_capacity(n: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(n),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    pub(crate) fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
    }

    pub(crate) fn points(&mut self, v: &[Point]) {
        self.u64(v.len() as u64);
        for &p in v {
            self.point(p);
        }
    }

    pub(crate) fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.f64(v);
        }
    }
}

/// Bounds-checked snapshot payload reader; every failure is the typed
/// [`NobleError::BadSnapshot`].
pub(crate) struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        SnapReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], NobleError> {
        if n > self.remaining() {
            return Err(bad(format!(
                "truncated snapshot: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn finish(&self) -> Result<(), NobleError> {
        if self.remaining() != 0 {
            return Err(bad(format!(
                "{} trailing bytes after snapshot content",
                self.remaining()
            )));
        }
        Ok(())
    }

    pub(crate) fn u8(&mut self) -> Result<u8, NobleError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, NobleError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, NobleError> {
        Ok(le_u64(self.take(8)?))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, NobleError> {
        usize::try_from(self.u64()?).map_err(|_| bad("length overflows usize"))
    }

    /// Reads a length that prefixes `unit`-byte elements, guarding the
    /// subsequent allocation against corrupt huge values. The vector
    /// readers then take the whole run in one bounds check and decode it
    /// in bulk.
    fn checked_len(&mut self, unit: usize) -> Result<usize, NobleError> {
        let n = self.usize()?;
        if n.checked_mul(unit).is_none_or(|b| b > self.remaining()) {
            return Err(bad(format!(
                "corrupt length {n}: exceeds {} remaining snapshot bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, NobleError> {
        Ok(le_f64(self.take(8)?))
    }

    pub(crate) fn string(&mut self) -> Result<String, NobleError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("snapshot string is not UTF-8"))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], NobleError> {
        let n = self.checked_len(1)?;
        self.take(n)
    }

    pub(crate) fn point(&mut self) -> Result<Point, NobleError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    pub(crate) fn usizes(&mut self) -> Result<Vec<usize>, NobleError> {
        let n = self.checked_len(8)?;
        self.take(n * 8)?
            .chunks_exact(8)
            .map(|b| usize::try_from(le_u64(b)).map_err(|_| bad("length overflows usize")))
            .collect()
    }

    pub(crate) fn points(&mut self) -> Result<Vec<Point>, NobleError> {
        let n = self.checked_len(16)?;
        Ok(self
            .take(n * 16)?
            .chunks_exact(16)
            .map(|b| Point::new(le_f64(&b[..8]), le_f64(&b[8..])))
            .collect())
    }

    pub(crate) fn matrix(&mut self) -> Result<Matrix, NobleError> {
        let rows = self.usize()?;
        let cols = self.checked_len(rows.max(1).saturating_mul(8))?;
        // checked_len bounded rows * cols * 8 by the remaining bytes.
        let data = self
            .take(rows * cols * 8)?
            .chunks_exact(8)
            .map(le_f64)
            .collect();
        Matrix::from_vec(rows, cols, data).map_err(|e| bad(format!("bad matrix: {e}")))
    }
}

/// Decodes the first 8 bytes of `b` as a little-endian `u64`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes the first 8 bytes of `b` as a little-endian `f64`.
fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_u64(b))
}

// ---------------------------------------------------------------------------
// Shared component codecs: networks, quantizers, output layouts.
// ---------------------------------------------------------------------------

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Tanh => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
        Activation::Identity => 3,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation, NobleError> {
    match tag {
        0 => Ok(Activation::Tanh),
        1 => Ok(Activation::Relu),
        2 => Ok(Activation::Sigmoid),
        3 => Ok(Activation::Identity),
        t => Err(bad(format!("unknown activation tag {t}"))),
    }
}

/// Writes a network: architecture specs, then the versioned parameter
/// blob ([`noble_nn::save_parameters`], which carries batch-norm running
/// statistics so inference is bit-identical after reload).
pub(crate) fn write_mlp(w: &mut SnapWriter, mlp: &Mlp) {
    w.u64(mlp.in_dim() as u64);
    let specs = mlp.layer_specs();
    w.u32(specs.len() as u32);
    for spec in specs {
        match spec {
            MlpLayerSpec::Dense { in_dim, out_dim } => {
                w.u8(0);
                w.u64(in_dim as u64);
                w.u64(out_dim as u64);
            }
            MlpLayerSpec::BatchNorm { dim } => {
                w.u8(1);
                w.u64(dim as u64);
            }
            MlpLayerSpec::Activation(a) => {
                w.u8(2);
                w.u8(activation_tag(a));
            }
        }
    }
    w.bytes(&noble_nn::save_parameters(mlp));
}

/// Reads a network written by [`write_mlp`]. A nested parameter blob of
/// any version but 2 is a typed error.
pub(crate) fn read_mlp(r: &mut SnapReader<'_>) -> Result<Mlp, NobleError> {
    let in_dim = r.usize()?;
    let spec_count = r.u32()? as usize;
    let mut specs = Vec::with_capacity(spec_count.min(1024));
    for _ in 0..spec_count {
        let spec = match r.u8()? {
            0 => MlpLayerSpec::Dense {
                in_dim: r.usize()?,
                out_dim: r.usize()?,
            },
            1 => MlpLayerSpec::BatchNorm { dim: r.usize()? },
            2 => MlpLayerSpec::Activation(activation_from_tag(r.u8()?)?),
            t => return Err(bad(format!("unknown layer spec tag {t}"))),
        };
        specs.push(spec);
    }
    let blob = r.bytes()?;
    // The blob's header first: a blob of another format version is a
    // version skew, whatever size its scalars make it.
    noble_nn::check_parameter_header(blob).map_err(|e| bad(format!("bad parameters: {e}")))?;
    // The specs' dimensions are untrusted: before from_specs allocates
    // weight matrices, require every tensor to fit inside the parameter
    // blob that claims to fill it (checked arithmetic — corrupt dims
    // error out instead of demanding huge allocations or overflowing).
    let mut param_bytes: usize = 0;
    for spec in &specs {
        let scalars = match *spec {
            MlpLayerSpec::Dense { in_dim, out_dim } => in_dim
                .checked_mul(out_dim)
                .and_then(|w| w.checked_add(out_dim)),
            MlpLayerSpec::BatchNorm { dim } => dim.checked_mul(4),
            MlpLayerSpec::Activation(_) => Some(0),
        };
        param_bytes = scalars
            .and_then(|s| s.checked_mul(8))
            .and_then(|b| param_bytes.checked_add(b))
            .ok_or_else(|| bad("architecture spec dimensions overflow".to_string()))?;
    }
    if param_bytes > blob.len() {
        return Err(bad(format!(
            "architecture needs {param_bytes} parameter bytes, blob has {}",
            blob.len()
        )));
    }
    let mut mlp =
        Mlp::from_specs(in_dim, &specs).map_err(|e| bad(format!("bad architecture: {e}")))?;
    noble_nn::load_parameters(&mut mlp, blob).map_err(|e| bad(format!("bad parameters: {e}")))?;
    Ok(mlp)
}

/// Writes a standalone dense layer (the IMU projection module).
pub(crate) fn write_dense(w: &mut SnapWriter, dense: &Dense) {
    w.matrix(dense.weights());
    w.matrix(dense.bias());
}

/// Reads a dense layer written by [`write_dense`].
pub(crate) fn read_dense(r: &mut SnapReader<'_>) -> Result<Dense, NobleError> {
    let weights = r.matrix()?;
    let bias = r.matrix()?;
    Dense::from_parts(weights, bias).map_err(|e| bad(format!("bad dense layer: {e}")))
}

fn decode_policy_tag(p: DecodePolicy) -> u8 {
    match p {
        DecodePolicy::CellCenter => 0,
        DecodePolicy::SampleMean => 1,
    }
}

fn decode_policy_from_tag(tag: u8) -> Result<DecodePolicy, NobleError> {
    match tag {
        0 => Ok(DecodePolicy::CellCenter),
        1 => Ok(DecodePolicy::SampleMean),
        t => Err(bad(format!("unknown decode policy tag {t}"))),
    }
}

/// Writes a fitted quantizer: grid geometry plus the per-class tables.
pub(crate) fn write_quantizer(w: &mut SnapWriter, q: &GridQuantizer) {
    let grid = q.grid();
    w.point(grid.origin());
    w.f64(grid.cell_size());
    w.u64(grid.cols() as u64);
    w.u64(grid.rows() as u64);
    w.u8(decode_policy_tag(q.policy()));
    w.usizes(q.class_cells());
    w.points(q.centroids());
    w.usizes(q.class_counts());
}

/// Reads a quantizer written by [`write_quantizer`].
pub(crate) fn read_quantizer(r: &mut SnapReader<'_>) -> Result<GridQuantizer, NobleError> {
    let origin = r.point()?;
    let cell_size = r.f64()?;
    let cols = r.usize()?;
    let rows = r.usize()?;
    let grid = Grid::from_parts(origin, cell_size, cols, rows)
        .map_err(|e| bad(format!("bad grid: {e}")))?;
    let policy = decode_policy_from_tag(r.u8()?)?;
    let class_cells = r.usizes()?;
    let centroids = r.points()?;
    let counts = r.usizes()?;
    GridQuantizer::from_parts(grid, policy, class_cells, centroids, counts)
        .map_err(|e| bad(format!("bad quantizer: {e}")))
}

fn head_kind_tag(k: HeadKind) -> u8 {
    match k {
        HeadKind::Softmax => 0,
        HeadKind::MultiLabelSigmoid => 1,
    }
}

fn head_kind_from_tag(tag: u8) -> Result<HeadKind, NobleError> {
    match tag {
        0 => Ok(HeadKind::Softmax),
        1 => Ok(HeadKind::MultiLabelSigmoid),
        t => Err(bad(format!("unknown head kind tag {t}"))),
    }
}

/// Writes a multi-head output layout.
pub(crate) fn write_layout(w: &mut SnapWriter, layout: &OutputLayout) {
    let heads = layout.heads();
    w.u32(heads.len() as u32);
    for h in heads {
        w.string(&h.name);
        w.u64(h.width as u64);
        w.u8(head_kind_tag(h.kind));
        w.u32(h.loss_weight_millis);
    }
}

/// Reads a layout written by [`write_layout`].
pub(crate) fn read_layout(r: &mut SnapReader<'_>) -> Result<OutputLayout, NobleError> {
    let count = r.u32()? as usize;
    let mut heads = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = r.string()?;
        let width = r.usize()?;
        let kind = r.u8()?;
        let millis = r.u32()?;
        let mut spec = match head_kind_from_tag(kind)? {
            HeadKind::Softmax => HeadSpec::softmax(&name, width),
            HeadKind::MultiLabelSigmoid => HeadSpec::multi_label(&name, width),
        };
        spec.loss_weight_millis = millis;
        heads.push(spec);
    }
    OutputLayout::new(heads).map_err(|e| bad(format!("bad output layout: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trip() {
        let snap = ModelSnapshot::new("wifi-noble", 12, 34, vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        let back = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.kind(), "wifi-noble");
        assert_eq!(back.feature_dim(), 12);
        assert_eq!(back.class_count(), 34);
        assert_eq!(back.version(), 0);
        assert_eq!(back.payload(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn model_version_round_trips() {
        let snap = ModelSnapshot::new("wifi-noble", 12, 34, vec![1, 2, 3]).with_version(7);
        assert_eq!(snap.version(), 7);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        let back = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version(), 7);
        // The version stamp is identity metadata, not payload: two
        // versions of the same bytes differ only in the stamp.
        let other = ModelSnapshot::new("wifi-noble", 12, 34, vec![1, 2, 3]).with_version(8);
        assert_ne!(other, snap);
        assert_eq!(other.payload(), snap.payload());
    }

    #[test]
    fn legacy_v1_container_reads_as_version_zero() {
        // Hand-encode a v1 container (no model-version field): magic,
        // container version 1, kind, feature_dim, class_count, payload.
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(MAGIC);
        w.u32(LEGACY_CONTAINER_VERSION);
        w.string("wifi-noble");
        w.u64(12);
        w.u64(34);
        w.bytes(&[5, 6, 7]);
        let back = ModelSnapshot::from_bytes(&w.buf).unwrap();
        assert_eq!(back.kind(), "wifi-noble");
        assert_eq!(back.feature_dim(), 12);
        assert_eq!(back.class_count(), 34);
        assert_eq!(back.version(), 0);
        assert_eq!(back.payload(), &[5, 6, 7]);
    }

    #[test]
    fn container_rejects_corruption() {
        let snap = ModelSnapshot::new("imu-noble", 3, 7, vec![9; 32]);
        let good = snap.to_bytes();
        // Bad magic.
        let mut bad_bytes = good.clone();
        bad_bytes[0] = b'Z';
        assert!(matches!(
            ModelSnapshot::from_bytes(&bad_bytes),
            Err(NobleError::BadSnapshot(_))
        ));
        // Version skew.
        let mut skew = good.clone();
        skew[4] = 99;
        let err = ModelSnapshot::from_bytes(&skew).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Truncation at every prefix length decodes to a typed error.
        for n in 0..good.len() {
            assert!(matches!(
                ModelSnapshot::from_bytes(&good[..n]),
                Err(NobleError::BadSnapshot(_))
            ));
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(ModelSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn corrupt_length_cannot_demand_huge_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // a vector length far beyond the buffer
        let mut r = SnapReader::new(&w.buf);
        assert!(r.usizes().is_err());
        let mut r = SnapReader::new(&w.buf);
        assert!(r.points().is_err());
        let mut r = SnapReader::new(&w.buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn unknown_kind_is_typed() {
        let snap = ModelSnapshot::new("martian-triangulator", 4, 0, vec![]);
        assert!(matches!(
            hydrate(&snap),
            Err(NobleError::BadSnapshot(ref m)) if m.contains("martian")
        ));
    }

    #[test]
    fn mlp_codec_round_trips_bit_exactly() {
        let mut mlp = Mlp::builder(4, 11)
            .dense(6)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(3)
            .build();
        let warm = Matrix::from_fn(8, 4, |i, j| (i * 3 + j) as f64 / 5.0 - 1.0);
        mlp.forward(&warm, true).unwrap();

        let mut w = SnapWriter::new();
        write_mlp(&mut w, &mlp);
        let mut r = SnapReader::new(&w.buf);
        let back = read_mlp(&mut r).unwrap();
        r.finish().unwrap();

        let x = Matrix::from_fn(5, 4, |i, j| (i as f64 - j as f64) / 3.0);
        assert_eq!(
            mlp.predict(&x).unwrap().as_slice(),
            back.predict(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn quantizer_codec_round_trips() {
        let samples = vec![
            Point::new(0.3, 0.4),
            Point::new(0.6, 0.2),
            Point::new(7.5, 3.3),
            Point::new(2.2, 9.9),
        ];
        let q = GridQuantizer::fit(&samples, 1.0, DecodePolicy::SampleMean).unwrap();
        let mut w = SnapWriter::new();
        write_quantizer(&mut w, &q);
        let mut r = SnapReader::new(&w.buf);
        let back = read_quantizer(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.num_classes(), q.num_classes());
        for p in &samples {
            let c = q.quantize_nearest(*p);
            assert_eq!(back.quantize_nearest(*p), c);
            assert_eq!(back.decode(c).unwrap(), q.decode(c).unwrap());
        }
    }

    #[test]
    fn layout_codec_round_trips() {
        let layout = OutputLayout::new(vec![
            HeadSpec::softmax("building", 3).with_weight(0.5),
            HeadSpec::multi_label("fine", 40).with_weight(4.0),
        ])
        .unwrap();
        let mut w = SnapWriter::new();
        write_layout(&mut w, &layout);
        let mut r = SnapReader::new(&w.buf);
        let back = read_layout(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, layout);
    }
}
