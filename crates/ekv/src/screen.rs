//! Rendering the Figure 7 installation screen.
//!
//! Figure 7 shows Red Hat's "Package Installation" panel — current
//! package name, size, summary, and a Total/Completed/Remaining table of
//! packages, bytes, and time — redirected over Ethernet into the
//! shoot-node xterm. [`InstallScreen`] reconstructs that panel from
//! progress events so `reproduce fig7` can print the same screen.

/// Progress snapshot driving the panel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanelState {
    /// Current package name-version-release, e.g. `dev-3.0.6-5`.
    pub package: String,
    /// Current package size in bytes.
    pub size_bytes: u64,
    /// One-line package summary.
    pub summary: String,
    /// Total packages in the install.
    pub total_packages: usize,
    /// Packages already installed.
    pub completed_packages: usize,
    /// Total bytes in the install.
    pub total_bytes: u64,
    /// Bytes already installed.
    pub completed_bytes: u64,
    /// Seconds elapsed so far.
    pub elapsed_seconds: f64,
}

/// A renderer accumulating per-package progress events.
#[derive(Debug, Clone, Default)]
pub struct InstallScreen {
    state: PanelState,
}

impl InstallScreen {
    /// Start a screen for an install of `total_packages` / `total_bytes`.
    pub fn new(total_packages: usize, total_bytes: u64) -> InstallScreen {
        InstallScreen { state: PanelState { total_packages, total_bytes, ..Default::default() } }
    }

    /// Record that `package` (with `size_bytes`, described by `summary`)
    /// is now installing at `elapsed_seconds`.
    pub fn begin_package(
        &mut self,
        package: &str,
        size_bytes: u64,
        summary: &str,
        elapsed_seconds: f64,
    ) {
        self.state.package = package.to_string();
        self.state.size_bytes = size_bytes;
        self.state.summary = summary.to_string();
        self.state.elapsed_seconds = elapsed_seconds;
    }

    /// Record that the current package finished.
    pub fn finish_package(&mut self, elapsed_seconds: f64) {
        self.state.completed_packages += 1;
        self.state.completed_bytes += self.state.size_bytes;
        self.state.elapsed_seconds = elapsed_seconds;
    }

    /// Render the Figure 7 panel as fixed-width text.
    pub fn render(&self) -> String {
        let s = &self.state;
        let remaining_packages = s.total_packages.saturating_sub(s.completed_packages);
        let remaining_bytes = s.total_bytes.saturating_sub(s.completed_bytes);
        let fmt_mb = |b: u64| format!("{}M", b / (1024 * 1024));
        let fmt_time = |secs: f64| {
            let secs = secs.max(0.0) as u64;
            format!("{}:{:02}.{:02}", secs / 3600, (secs / 60) % 60, secs % 60)
        };
        // Estimate remaining time from observed byte rate.
        let rate = if s.elapsed_seconds > 0.0 {
            s.completed_bytes as f64 / s.elapsed_seconds
        } else {
            0.0
        };
        let remaining_time = if rate > 0.0 { remaining_bytes as f64 / rate } else { 0.0 };

        // Compose rows, then pad every row to one width so the telnet
        // panel renders as a clean box.
        const INNER: usize = 58;
        let rows = vec![
            format!(" Name   : {}", truncate(&s.package, INNER - 11)),
            format!(" Size   : {}k", s.size_bytes / 1024),
            format!(" Summary: {}", truncate(&s.summary, INNER - 11)),
            String::new(),
            "             Packages      Bytes       Time".to_string(),
            format!(
                " Total    : {:>8} {:>10} {:>10}",
                s.total_packages,
                fmt_mb(s.total_bytes),
                fmt_time(s.elapsed_seconds + remaining_time),
            ),
            format!(
                " Completed: {:>8} {:>10} {:>10}",
                s.completed_packages,
                fmt_mb(s.completed_bytes),
                fmt_time(s.elapsed_seconds),
            ),
            format!(
                " Remaining: {:>8} {:>10} {:>10}",
                remaining_packages,
                fmt_mb(remaining_bytes),
                fmt_time(remaining_time),
            ),
        ];
        let title = " Package Installation ";
        let dash_total = INNER.saturating_sub(title.len());
        let mut out = format!(
            "+{}{}{}+\n",
            "-".repeat(dash_total / 2),
            title,
            "-".repeat(dash_total - dash_total / 2)
        );
        for row in rows {
            out.push_str(&format!("|{:<INNER$}|\n", truncate(&row, INNER)));
        }
        out.push_str(&format!("+{}+\n", "-".repeat(INNER)));
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}...", &s[..n.saturating_sub(3)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_figure7_fields() {
        let mut screen = InstallScreen::new(162, 386 * 1024 * 1024);
        for _ in 0..37 {
            screen.begin_package("x", 2 * 1024 * 1024, "filler", 0.0);
            screen.finish_package(80.0);
        }
        screen.begin_package(
            "dev-3.0.6-5",
            340 * 1024,
            "The most commonly-used entries in the /dev directory.",
            83.0,
        );
        let text = screen.render();
        assert!(text.contains("Package Installation"));
        assert!(text.contains("dev-3.0.6-5"));
        assert!(text.contains("340k"));
        assert!(text.contains("Total    :      162"));
        assert!(text.contains("Completed:       37"));
        assert!(text.contains("Remaining:      125"));
        // All lines are the same width (a clean telnet panel).
        let widths: Vec<usize> = text.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn byte_accounting_in_panel() {
        let mut screen = InstallScreen::new(2, 10 * 1024 * 1024);
        screen.begin_package("a-1-1", 4 * 1024 * 1024, "a", 0.0);
        screen.finish_package(4.0);
        let s = &screen.state;
        assert_eq!(s.completed_bytes, 4 * 1024 * 1024);
        assert_eq!(s.completed_packages, 1);
        let text = screen.render();
        assert!(text.contains("Remaining:        1"));
    }

    #[test]
    fn long_summary_is_truncated() {
        let mut screen = InstallScreen::new(1, 1024);
        screen.begin_package("p", 1024, &"long ".repeat(30), 0.0);
        let text = screen.render();
        assert!(text.contains("..."));
        let widths: Vec<usize> = text.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }
}
