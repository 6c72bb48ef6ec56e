//! The high-level classification pipeline: a [`GenericEncoder`] and an
//! [`HdcModel`] packaged as one trainable, persistable unit — the shape an
//! edge deployment actually ships.

use std::io::{self, Read, Write};

use crate::encoding::{Encoder, GenericEncoder, GenericEncoderSpec};
use crate::io::ReadModelError;
use crate::{HdcError, HdcModel, IntHv, Quantizer};

/// A trained encode-and-classify pipeline.
///
/// ```
/// use generic_hdc::{HdcPipeline, encoding::GenericEncoderSpec};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let features: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![if i % 2 == 0 { 1.0 } else { 9.0 }; 8])
///     .collect();
/// let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
///
/// let spec = GenericEncoderSpec::new(1024, 8).with_seed(7);
/// let pipeline = HdcPipeline::train(spec, &features, &labels, 2, 10)?;
/// assert_eq!(pipeline.predict(&[1.0; 8])?, 0);
/// assert_eq!(pipeline.predict(&[9.0; 8])?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HdcPipeline {
    encoder: GenericEncoder,
    model: HdcModel,
}

impl HdcPipeline {
    /// Trains a pipeline end to end: fits the quantizer, encodes the
    /// training data, bundles the initial model, and retrains for up to
    /// `epochs` epochs.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid spec, empty/ragged data, or
    /// out-of-range labels.
    pub fn train(
        spec: GenericEncoderSpec,
        features: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        epochs: usize,
    ) -> Result<Self, HdcError> {
        let encoder = GenericEncoder::from_data(spec, features)?;
        let encoded = encoder.encode_batch(features)?;
        let mut model = HdcModel::fit(&encoded, labels, n_classes)?;
        for _ in 0..epochs {
            if model.retrain_epoch(&encoded, labels)? == 0 {
                break;
            }
        }
        Ok(HdcPipeline { encoder, model })
    }

    /// Assembles a pipeline from pre-built parts.
    ///
    /// # Errors
    ///
    /// Returns an error if the encoder and model dimensionalities differ.
    pub fn from_parts(encoder: GenericEncoder, model: HdcModel) -> Result<Self, HdcError> {
        if encoder.dim() != model.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: encoder.dim(),
                actual: model.dim(),
            });
        }
        Ok(HdcPipeline { encoder, model })
    }

    /// The encoder half.
    pub fn encoder(&self) -> &GenericEncoder {
        &self.encoder
    }

    /// The model half.
    pub fn model(&self) -> &HdcModel {
        &self.model
    }

    /// Mutable access to the model (for streaming
    /// [`update`](HdcModel::update)s).
    pub fn model_mut(&mut self) -> &mut HdcModel {
        &mut self.model
    }

    /// Encodes and classifies one raw sample.
    ///
    /// # Errors
    ///
    /// Returns an error on a wrong-width sample.
    pub fn predict(&self, sample: &[f64]) -> Result<usize, HdcError> {
        Ok(self.model.predict(&self.encoder.encode(sample)?))
    }

    /// Encodes one raw sample (e.g. for clustering or custom scoring).
    ///
    /// # Errors
    ///
    /// Returns an error on a wrong-width sample.
    pub fn encode(&self, sample: &[f64]) -> Result<IntHv, HdcError> {
        self.encoder.encode(sample)
    }

    /// Classification accuracy on a labeled set.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched lengths or row widths.
    pub fn accuracy(&self, features: &[Vec<f64>], labels: &[usize]) -> Result<f64, HdcError> {
        if features.len() != labels.len() {
            return Err(HdcError::invalid(
                "labels",
                "features and labels must have equal lengths",
            ));
        }
        if features.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        let mut correct = 0;
        for (x, &y) in features.iter().zip(labels) {
            if self.predict(x)? == y {
                correct += 1;
            }
        }
        Ok(correct as f64 / features.len() as f64)
    }

    /// Serializes the full pipeline (encoder spec, quantizer, and model)
    /// to the GHDC wire format.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let spec = self.encoder.spec();
        let quantizer = self.encoder.quantizer();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GHDC");
        let flags = u8::from(spec.id_binding()) | (u8::from(spec.seeded_ids()) << 1);
        buf.extend_from_slice(&[2u8, 2u8, 16u8, flags]);
        buf.extend_from_slice(&(spec.dim() as u32).to_le_bytes());
        buf.extend_from_slice(&(spec.n_features() as u32).to_le_bytes());
        buf.extend_from_slice(&(spec.n_levels() as u32).to_le_bytes());
        buf.extend_from_slice(&(spec.window() as u32).to_le_bytes());
        buf.extend_from_slice(&spec.seed().to_le_bytes());
        for &m in quantizer.mins() {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        for &s in quantizer.spans() {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        crate::io::write_model(&self.model, &mut buf)?;
        // Outer CRC over everything, including the nested (itself sealed)
        // model section.
        crate::io::seal(&mut buf);
        writer.write_all(&buf)
    }

    /// Deserializes a pipeline written by [`HdcPipeline::write_to`].
    ///
    /// Version-1 streams (written before the CRC32 footer existed) are
    /// still accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ReadModelError`] on I/O failure, a malformed stream, or
    /// a checksum mismatch.
    pub fn read_from<R: Read>(outer: R) -> Result<Self, ReadModelError> {
        let bytes = crate::io::read_envelope(outer)?;
        let mut reader: &[u8] = &bytes;
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != b"GHDC" {
            return Err(ReadModelError::BadMagic);
        }
        let mut meta = [0u8; 4];
        reader.read_exact(&mut meta)?;
        if meta[1] != 2 {
            return Err(ReadModelError::WrongKind {
                found: meta[1],
                expected: 2,
            });
        }
        let id_binding = meta[3] & 1 != 0;
        let seeded_ids = meta[3] & 2 != 0;
        let mut w32 = [0u8; 4];
        let mut read_u32 = |r: &mut &[u8]| -> io::Result<usize> {
            r.read_exact(&mut w32)?;
            Ok(u32::from_le_bytes(w32) as usize)
        };
        let dim = read_u32(&mut reader)?;
        let n_features = read_u32(&mut reader)?;
        let n_levels = read_u32(&mut reader)?;
        let window = read_u32(&mut reader)?;
        let mut w64 = [0u8; 8];
        reader.read_exact(&mut w64)?;
        let seed = u64::from_le_bytes(w64);

        let read_f64s = |r: &mut &[u8], n: usize| -> io::Result<Vec<f64>> {
            let mut out = Vec::with_capacity(n);
            let mut buf = [0u8; 8];
            for _ in 0..n {
                r.read_exact(&mut buf)?;
                out.push(f64::from_le_bytes(buf));
            }
            Ok(out)
        };
        if n_features == 0 || n_features > 1 << 20 {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "n_features",
                "implausible feature count",
            )));
        }
        let mins = read_f64s(&mut reader, n_features)?;
        let spans = read_f64s(&mut reader, n_features)?;
        let quantizer = Quantizer::from_parts(mins, spans, n_levels)?;

        let spec = GenericEncoderSpec::new(dim, n_features)
            .with_levels(n_levels)
            .with_window(window)
            .with_id_binding(id_binding)
            .with_seeded_ids(seeded_ids)
            .with_seed(seed);
        let encoder = GenericEncoder::with_quantizer(spec, quantizer)?;
        let model = crate::io::read_model(reader)?;
        HdcPipeline::from_parts(encoder, model).map_err(ReadModelError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<Vec<f64>>, Vec<usize>) {
        let features: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let c = i % 3;
                (0..10)
                    .map(|j| (c * 4) as f64 + ((i * 3 + j) % 4) as f64 * 0.2)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        (features, labels)
    }

    #[test]
    fn train_and_predict() {
        let (xs, ys) = toy();
        let spec = GenericEncoderSpec::new(1024, 10).with_seed(1);
        let p = HdcPipeline::train(spec, &xs, &ys, 3, 10).unwrap();
        assert!(p.accuracy(&xs, &ys).unwrap() >= 0.95);
    }

    #[test]
    fn round_trips_through_bytes() {
        let (xs, ys) = toy();
        let spec = GenericEncoderSpec::new(1024, 10)
            .with_window(2)
            .with_id_binding(false)
            .with_seed(9);
        let p = HdcPipeline::train(spec, &xs, &ys, 3, 5).unwrap();
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let restored = HdcPipeline::read_from(buf.as_slice()).unwrap();
        // Bit-identical behaviour: same predictions, same encodings.
        for x in &xs {
            assert_eq!(p.predict(x).unwrap(), restored.predict(x).unwrap());
            assert_eq!(p.encode(x).unwrap(), restored.encode(x).unwrap());
        }
        assert_eq!(restored.encoder().spec().window(), 2);
        assert!(!restored.encoder().spec().id_binding());
    }

    #[test]
    fn rejects_model_streams() {
        let (xs, ys) = toy();
        let spec = GenericEncoderSpec::new(512, 10).with_seed(2);
        let p = HdcPipeline::train(spec, &xs, &ys, 3, 2).unwrap();
        let mut buf = Vec::new();
        crate::io::write_model(p.model(), &mut buf).unwrap();
        assert!(matches!(
            HdcPipeline::read_from(buf.as_slice()),
            Err(ReadModelError::WrongKind {
                found: 0,
                expected: 2
            })
        ));
    }

    #[test]
    fn streaming_updates_through_model_mut() {
        let (xs, ys) = toy();
        let spec = GenericEncoderSpec::new(512, 10).with_seed(3);
        let mut p = HdcPipeline::train(spec, &xs[..6], &ys[..6], 3, 1).unwrap();
        for (x, &y) in xs.iter().zip(&ys).skip(6) {
            let hv = p.encode(x).unwrap();
            p.model_mut().update(&hv, y).unwrap();
        }
        assert!(p.accuracy(&xs, &ys).unwrap() >= 0.9);
    }

    #[test]
    fn from_parts_validates_dimensions() {
        let (xs, ys) = toy();
        let spec = GenericEncoderSpec::new(512, 10).with_seed(4);
        let encoder = GenericEncoder::from_data(spec, &xs).unwrap();
        let wrong_model = HdcModel::new(1024, 3).unwrap();
        assert!(HdcPipeline::from_parts(encoder, wrong_model).is_err());
        let _ = ys;
    }
}
