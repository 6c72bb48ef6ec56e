//! Plain-text table formatting for the figure/table binaries, and the
//! one place the self-checking binaries write their `BENCH_*.json`
//! records.

use std::path::PathBuf;

/// Writes the JSON record of the `name` bench binary. A full run writes
/// `BENCH_<name>.json` in the working directory — the committed record;
/// a `--smoke` run writes `target/smoke/BENCH_<name>.json`, so checks
/// never overwrite the committed full-mode figures.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_record(name: &str, smoke: bool, json: &str) {
    let file = format!("BENCH_{name}.json");
    let path = if smoke {
        let dir = PathBuf::from("target").join("smoke");
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Renders a fixed-width table: header row + data rows, first column
/// left-aligned, the rest right-aligned.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), n_cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, &w)) in cells.iter().zip(widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a fraction as a percentage with one decimal, e.g. `93.5%`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Formats a quantity in engineering-style units given a base unit,
/// e.g. `si(3.2e-5, "J")` → `"32.00 uJ"`.
pub fn si(value: f64, unit: &str) -> String {
    let (scaled, prefix) = if value == 0.0 {
        (0.0, "")
    } else {
        let exp = value.abs().log10().floor() as i32;
        match exp {
            i32::MIN..=-10 => (value * 1e12, "p"),
            -9..=-7 => (value * 1e9, "n"),
            -6..=-4 => (value * 1e6, "u"),
            -3..=-1 => (value * 1e3, "m"),
            0..=2 => (value, ""),
            3..=5 => (value * 1e-3, "k"),
            6..=8 => (value * 1e-6, "M"),
            _ => (value * 1e-9, "G"),
        }
    };
    format!("{scaled:.2} {prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let header = vec!["name".to_string(), "v".to_string()];
        let rows = vec![
            vec!["a".to_string(), "1".to_string()],
            vec!["long-name".to_string(), "22".to_string()],
        ];
        let t = render_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.935), "93.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn si_formats() {
        assert_eq!(si(3.2e-5, "J"), "32.00 uJ");
        assert_eq!(si(1.97e-3, "W"), "1.97 mW");
        assert_eq!(si(0.0, "J"), "0.00 J");
        assert_eq!(si(2_500.0, "J"), "2.50 kJ");
    }
}
