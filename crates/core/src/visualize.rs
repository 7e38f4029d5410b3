//! Rendering helpers for the figure-regeneration binaries.
//!
//! All figures are written as binary PPM images (no external image crate):
//! class-coloured segmentation masks, per-segment IoU panels (Fig. 1),
//! prior heat maps (Fig. 4) and simple CDF line plots (Fig. 5).

use crate::metrics::SegmentRecord;
use metaseg_data::{ClassCatalog, LabelMap};
use metaseg_imgproc::{Color, ColorMap, Connectivity, Grid, Ppm};

/// Renders a label map with the Cityscapes-like class palette.
pub fn render_labels(labels: &LabelMap, catalog: &ClassCatalog) -> Ppm {
    let pixels = Grid::from_fn(labels.width(), labels.height(), |x, y| {
        catalog.color(labels.class_at(x, y))
    });
    Ppm::from_grid(pixels)
}

/// Renders the per-segment IoU panel of Fig. 1: every predicted segment is
/// filled with a red-to-green colour encoding its value in `values` (true or
/// predicted IoU); segments without a value (no ground truth) are white.
pub fn render_segment_values(
    predicted_labels: &LabelMap,
    records: &[SegmentRecord],
    values: &[Option<f64>],
    connectivity: Connectivity,
) -> Ppm {
    assert_eq!(
        records.len(),
        values.len(),
        "one value per segment record is required"
    );
    let components = predicted_labels.segments(connectivity);
    let mut image = Ppm::new(predicted_labels.width(), predicted_labels.height());
    // Default: white (regions without a record, e.g. excluded void regions).
    for y in 0..predicted_labels.height() {
        for x in 0..predicted_labels.width() {
            image.set(x, y, Color::WHITE);
        }
    }
    for (record, value) in records.iter().zip(values) {
        let color = match value {
            Some(v) => ColorMap::RedGreen.color(*v),
            None => Color::WHITE,
        };
        if components.region(record.region_id).is_some() {
            for (x, y) in components.pixels_of(record.region_id) {
                image.set(x, y, color);
            }
        }
    }
    image
}

/// Renders a scalar heat map (e.g. the pixel-wise prior of class `person`,
/// Fig. 4) with the `Heat` colour map, normalising to the map's own range.
pub fn render_heatmap(values: &Grid<f64>) -> Ppm {
    Ppm::from_scalar(values, ColorMap::Heat, values.min(), values.max())
}

/// Renders a set of empirical CDF curves into a simple line plot.
///
/// Each curve is a list of `(x, F(x))` pairs with `x` in `[0, 1]`; curves are
/// drawn in the provided colours on a white background with the origin at the
/// lower left (Fig. 5 style).
///
/// # Panics
///
/// Panics if `width`/`height` are smaller than 16 pixels or the number of
/// colours does not match the number of curves.
pub fn render_cdf_plot(
    curves: &[Vec<(f64, f64)>],
    colors: &[Color],
    width: usize,
    height: usize,
) -> Ppm {
    assert!(
        width >= 16 && height >= 16,
        "plot must be at least 16x16 pixels"
    );
    assert_eq!(
        curves.len(),
        colors.len(),
        "one colour per curve is required"
    );
    let mut image = Ppm::new(width, height);
    for y in 0..height {
        for x in 0..width {
            image.set(x, y, Color::WHITE);
        }
    }
    // Axes.
    for x in 0..width {
        image.set(x, height - 1, Color::BLACK);
    }
    for y in 0..height {
        image.set(0, y, Color::BLACK);
    }
    // Curves.
    for (curve, color) in curves.iter().zip(colors) {
        for window in curve.windows(2) {
            let (x0, y0) = window[0];
            let (x1, y1) = window[1];
            // Draw the step as a short dense polyline.
            let steps = 16;
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = x0 + (x1 - x0) * t;
                let y = y0 + (y1 - y0) * t;
                let px = ((x.clamp(0.0, 1.0)) * (width - 1) as f64).round() as usize;
                let py = ((1.0 - y.clamp(0.0, 1.0)) * (height - 1) as f64).round() as usize;
                image.set(px.min(width - 1), py.min(height - 1), *color);
            }
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{segment_metrics, MetricsConfig};
    use metaseg_data::{ProbMap, SemanticClass};

    #[test]
    fn label_rendering_uses_palette_colors() {
        let catalog = ClassCatalog::cityscapes_like();
        let labels = LabelMap::from_fn(4, 2, |x, _| {
            if x < 2 {
                SemanticClass::Road
            } else {
                SemanticClass::Sky
            }
        });
        let image = render_labels(&labels, &catalog);
        assert_eq!(
            *image.pixels().get(0, 0),
            catalog.color(SemanticClass::Road)
        );
        assert_eq!(*image.pixels().get(3, 1), catalog.color(SemanticClass::Sky));
    }

    #[test]
    fn segment_value_panel_colors_by_value() {
        let labels = LabelMap::from_fn(6, 2, |x, _| {
            if x < 3 {
                SemanticClass::Road
            } else {
                SemanticClass::Car
            }
        });
        let probs = ProbMap::one_hot(&labels, 19);
        let records = segment_metrics(&probs, Some(&labels), &MetricsConfig::default());
        let values: Vec<Option<f64>> = records
            .iter()
            .map(|r| {
                if r.class == SemanticClass::Road {
                    Some(1.0)
                } else {
                    Some(0.0)
                }
            })
            .collect();
        let image = render_segment_values(&labels, &records, &values, Connectivity::Eight);
        let good = image.pixels().get(0, 0);
        let bad = image.pixels().get(5, 0);
        // High value is green dominant, low value red dominant.
        assert!(good.g > good.r);
        assert!(bad.r > bad.g);
    }

    #[test]
    fn heatmap_and_cdf_plot_render() {
        let grid = Grid::from_fn(8, 4, |x, y| (x + y) as f64);
        let heat = render_heatmap(&grid);
        assert_eq!(heat.width(), 8);

        let curve_a: Vec<(f64, f64)> = (0..11)
            .map(|i| (i as f64 / 10.0, i as f64 / 10.0))
            .collect();
        let curve_b: Vec<(f64, f64)> = (0..11).map(|i| (i as f64 / 10.0, 1.0)).collect();
        let plot = render_cdf_plot(
            &[curve_a, curve_b],
            &[Color::new(255, 0, 0), Color::new(0, 0, 255)],
            64,
            48,
        );
        assert_eq!(plot.width(), 64);
        assert_eq!(plot.height(), 48);
        // The x axis is drawn in black (the bottom-right corner is not touched
        // by either curve because both end at F(1) = 1, i.e. the top).
        assert_eq!(*plot.pixels().get(32, 47), Color::BLACK);
    }

    #[test]
    #[should_panic]
    fn mismatched_values_panic() {
        let labels = LabelMap::filled(4, 4, SemanticClass::Road);
        let probs = ProbMap::one_hot(&labels, 19);
        let records = segment_metrics(&probs, Some(&labels), &MetricsConfig::default());
        let _ = render_segment_values(&labels, &records, &[], Connectivity::Eight);
    }
}
