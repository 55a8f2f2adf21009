//! Rendering of experiment results: markdown tables, CSV and an ASCII
//! line plot (so `ftcg figure1` shows the curve shapes in a terminal
//! without a plotting stack).

use ftcg_model::Scheme;

use crate::figure1::Figure1Panel;
use crate::table1::Table1Entry;

/// Renders Table 1 in the paper's column layout as markdown.
pub fn table1_markdown(rows: &[Table1Entry]) -> String {
    let mut out = String::new();
    out.push_str("| id | n | density | scheme | s̃ | Et(s̃) | s* | Et(s*) | l (%) |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.2e} | {} | {} | {:.1} | {} | {:.1} | {:.2} |\n",
            r.id,
            r.n,
            r.density,
            r.scheme.name(),
            r.s_model,
            r.time_model,
            r.s_best,
            r.time_best,
            r.loss_pct
        ));
    }
    out
}

/// Renders Table 1 as CSV.
pub fn table1_csv(rows: &[Table1Entry]) -> String {
    let mut out =
        String::from("id,n,density,scheme,s_model,time_model,s_best,time_best,loss_pct\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6e},{},{},{:.6},{},{:.6},{:.4}\n",
            r.id,
            r.n,
            r.density,
            r.scheme.name(),
            r.s_model,
            r.time_model,
            r.s_best,
            r.time_best,
            r.loss_pct
        ));
    }
    out
}

/// Renders one Figure 1 panel as CSV (long format).
pub fn figure1_csv(panels: &[Figure1Panel]) -> String {
    let mut out = String::from("id,n,scheme,mtbf,mean_time,std_time,s,d\n");
    for p in panels {
        for (scheme, pts) in &p.curves {
            for pt in pts {
                out.push_str(&format!(
                    "{},{},{},{:.4},{:.6},{:.6},{},{}\n",
                    p.id,
                    p.n,
                    scheme.name(),
                    pt.mtbf,
                    pt.mean_time,
                    pt.std_time,
                    pt.s,
                    pt.d
                ));
            }
        }
    }
    out
}

/// Scheme plot glyphs matching the paper's line styles:
/// dotted = ONLINE-DETECTION, dashed = ABFT-DETECTION,
/// solid = ABFT-CORRECTION.
pub(crate) fn scheme_glyph(s: Scheme) -> char {
    match s {
        Scheme::OnlineDetection => 'o',
        Scheme::AbftDetection => 'd',
        Scheme::AbftCorrection => 'c',
    }
}

/// ASCII plot of one panel: x = log(MTBF), y = time. `width`×`height`
/// character grid plus axes.
pub fn figure1_ascii(panel: &Figure1Panel, width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 6, "plot too small");
    let all_points: Vec<(f64, f64)> = panel
        .curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| (p.mtbf.ln(), p.mean_time)))
        .collect();
    if all_points.is_empty() {
        return String::from("(no data)\n");
    }
    let xmin = all_points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let xmax = all_points
        .iter()
        .map(|p| p.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let ymin = all_points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let ymax = all_points
        .iter()
        .map(|p| p.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (scheme, pts) in &panel.curves {
        let glyph = scheme_glyph(*scheme);
        for p in pts {
            let gx = (((p.mtbf.ln() - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let gy = (((p.mean_time - ymin) / yspan) * (height - 1) as f64).round() as usize;
            let row = height - 1 - gy.min(height - 1);
            let col = gx.min(width - 1);
            // On collision, later schemes overwrite: mark shared points '*'.
            grid[row][col] = if grid[row][col] == ' ' { glyph } else { '*' };
        }
    }

    let mut out = format!(
        "Matrix #{} (n={}): time [{:.1}, {:.1}] vs MTBF [{:.0}, {:.0}]\n",
        panel.id,
        panel.n,
        ymin,
        ymax,
        xmin.exp(),
        xmax.exp()
    );
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    out.push_str("legend: o=ONLINE-DETECTION d=ABFT-DETECTION c=ABFT-CORRECTION *=overlap\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::Figure1Point;

    fn sample_rows() -> Vec<Table1Entry> {
        vec![Table1Entry {
            id: 341,
            n: 1440,
            density: 2.1e-3,
            scheme: Scheme::AbftDetection,
            s_model: 18,
            time_model: 8.52,
            s_best: 17,
            time_best: 8.50,
            loss_pct: 0.24,
        }]
    }

    fn sample_panel() -> Figure1Panel {
        let mk = |base: f64| {
            vec![
                Figure1Point {
                    mtbf: 100.0,
                    mean_time: base + 3.0,
                    std_time: 0.2,
                    s: 5,
                    d: 1,
                },
                Figure1Point {
                    mtbf: 1000.0,
                    mean_time: base + 1.0,
                    std_time: 0.1,
                    s: 15,
                    d: 1,
                },
                Figure1Point {
                    mtbf: 10000.0,
                    mean_time: base,
                    std_time: 0.1,
                    s: 40,
                    d: 1,
                },
            ]
        };
        Figure1Panel {
            id: 924,
            n: 3750,
            curves: [
                (Scheme::OnlineDetection, mk(6.0)),
                (Scheme::AbftDetection, mk(5.5)),
                (Scheme::AbftCorrection, mk(5.0)),
            ],
        }
    }

    #[test]
    fn markdown_contains_paper_columns() {
        let md = table1_markdown(&sample_rows());
        assert!(md.contains("| id |"));
        assert!(md.contains("Et(s̃)"));
        assert!(md.contains("| 341 |"));
        assert!(md.contains("ABFT-DETECTION"));
    }

    #[test]
    fn csv_row_count() {
        let csv = table1_csv(&sample_rows());
        assert_eq!(csv.lines().count(), 2); // header + 1 row
        assert!(csv.starts_with("id,n,"));
    }

    #[test]
    fn figure_csv_long_format() {
        let csv = figure1_csv(&[sample_panel()]);
        // header + 3 schemes × 3 points
        assert_eq!(csv.lines().count(), 1 + 9);
        assert!(csv.contains("ABFT-CORRECTION"));
    }

    #[test]
    fn ascii_plot_renders_all_schemes() {
        let txt = figure1_ascii(&sample_panel(), 40, 10);
        assert!(txt.contains("Matrix #924"));
        // All three glyphs (or overlaps) appear.
        let body: String = txt.lines().skip(1).collect();
        assert!(body.contains('c') || body.contains('*'));
        assert!(body.contains('o') || body.contains('*'));
        assert!(txt.contains("legend"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn ascii_rejects_tiny_grid() {
        figure1_ascii(&sample_panel(), 4, 2);
    }
}
