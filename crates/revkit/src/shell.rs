//! The command shell: parsing and executing command pipelines.

use crate::command::{builtin_commands, Command};
use crate::{RevkitError, Store};
use qdaflow_pipeline::script::{split_statements, tokenize};

/// A RevKit-style shell holding a [`Store`] and a command registry.
///
/// Scripts are semicolon- or newline-separated command invocations; arguments
/// are whitespace-separated, with double quotes grouping an argument that
/// contains spaces (as needed for `revgen --expr "(a & b) ^ c"`).
pub struct Shell {
    commands: Vec<Box<dyn Command>>,
    store: Store,
}

impl Shell {
    /// Creates a shell with the built-in command set and an empty store.
    pub fn new() -> Self {
        Self {
            commands: builtin_commands(),
            store: Store::new(),
        }
    }

    /// Read access to the store (for inspecting results after a script run).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store (for seeding specifications directly).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Registers an additional command; a command with the same name replaces
    /// the existing one.
    pub fn register(&mut self, command: Box<dyn Command>) {
        self.commands.retain(|c| c.name() != command.name());
        self.commands.push(command);
    }

    /// Names and descriptions of all registered commands.
    pub fn help(&self) -> Vec<(String, String)> {
        self.commands
            .iter()
            .map(|c| (c.name().to_owned(), c.description().to_owned()))
            .collect()
    }

    /// Runs a single command line (name plus arguments).
    ///
    /// # Errors
    ///
    /// Returns [`RevkitError::UnknownCommand`] for unregistered commands,
    /// [`RevkitError::Script`] for malformed lines (e.g. an unterminated
    /// quote), and propagates command execution errors.
    pub fn run_command(&mut self, line: &str) -> Result<(), RevkitError> {
        let tokens = tokenize(line)?;
        let Some((name, args)) = tokens.split_first() else {
            return Ok(());
        };
        let command = self
            .commands
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| RevkitError::UnknownCommand { name: name.clone() })?;
        command.execute(args, &mut self.store)
    }

    /// Runs a whole script (commands separated by `;` or newlines, with
    /// double quotes protecting separators inside an argument — as needed
    /// for `flow "revgen --hwb 4; tbs; …"`) and returns the log lines
    /// produced by this run.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first command error.
    pub fn run_script(&mut self, script: &str) -> Result<Vec<String>, RevkitError> {
        let before = self.store.log_lines().len();
        for line in split_statements(script)? {
            self.run_command(&line)?;
        }
        Ok(self.store.log_lines()[before..].to_vec())
    }
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize("revgen --expr \"(a & b) ^ c\"").unwrap(),
            vec!["revgen", "--expr", "(a & b) ^ c"]
        );
        assert_eq!(tokenize("  ps   -c ").unwrap(), vec!["ps", "-c"]);
        assert!(tokenize("").unwrap().is_empty());
    }

    #[test]
    fn unterminated_quotes_are_shell_errors() {
        let mut shell = Shell::new();
        assert!(matches!(
            shell.run_command("revgen --expr \"a & b"),
            Err(RevkitError::Script(_))
        ));
        assert!(matches!(
            shell.run_script("ps; revgen --expr \"a & b"),
            Err(RevkitError::Script(_))
        ));
    }

    #[test]
    fn paper_pipeline_runs_end_to_end() {
        // Equation (5) of the paper.
        let mut shell = Shell::new();
        let output = shell
            .run_script("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")
            .unwrap();
        assert!(output.iter().any(|l| l.contains("[tbs]")));
        assert!(output.iter().any(|l| l.contains("[revsimp]")));
        assert!(output.iter().any(|l| l.contains("[rptm]")));
        assert!(output.iter().any(|l| l.contains("[tpar]")));
        assert!(output.iter().any(|l| l.contains("T-count")));
        assert!(shell.store().quantum().is_some());
    }

    #[test]
    fn exec_command_reconfigures_simulation() {
        let mut shell = Shell::new();
        let output = shell
            .run_script(
                "exec --threads 2 --fusion off --threshold 4096\n\
                 revgen --hwb 3; tbs; rptm; simulate",
            )
            .unwrap();
        assert!(output.iter().any(|l| l.contains(
            "[exec] threads=2 fusion=off parallel-threshold=4096 \
             plan=on block-bits=auto pair-fusion=on"
        )));
        assert!(output
            .iter()
            .any(|l| l.contains("[simulate]") && l.contains("matches")));
        let config = shell.store().exec_config();
        assert_eq!(config.threads, 2);
        assert!(!config.fusion);
        // The plan knobs reconfigure the interpreter path.
        let output = shell
            .run_script("exec --plan off --block-bits 8 --pair-fusion off")
            .unwrap();
        assert!(output
            .iter()
            .any(|l| l.contains("plan=off block-bits=8 pair-fusion=off")));
        let config = shell.store().exec_config();
        assert!(!config.plan);
        assert_eq!(config.block_bits, 8);
        assert!(!config.pair_fusion);
        // Invalid arguments are rejected.
        assert!(shell.run_command("exec --threads 0").is_err());
        assert!(shell.run_command("exec --fusion maybe").is_err());
        assert!(shell.run_command("exec --plan maybe").is_err());
        assert!(shell.run_command("exec --pair-fusion maybe").is_err());
        // Without arguments the command just reports the current settings.
        let report = shell.run_script("exec").unwrap();
        assert!(report.iter().any(|l| l.contains("threads=2")));
    }

    #[test]
    fn flow_command_runs_a_quoted_pipeline() {
        // Equation (5) as literal user input: the quoted script is one
        // statement even though it contains semicolons.
        let mut shell = Shell::new();
        let output = shell
            .run_script("flow \"revgen --hwb 4; tbs; revsimp; rptm; tpar; ps\"")
            .unwrap();
        assert!(output.iter().any(|l| l.contains("[flow] tbs")));
        assert!(output.iter().any(|l| l.contains("T-count")));
        assert!(shell.store().quantum().is_some());
        assert!(shell.store().reversible().is_some());
        assert!(shell.store().permutation().is_some());
        // The produced circuits agree with each other.
        let quantum = shell.store().quantum().unwrap().clone();
        let reversible = shell.store().reversible().unwrap().clone();
        assert!(
            qdaflow_mapping::verify::quantum_matches_reversible(&quantum, &reversible).unwrap()
        );
    }

    #[test]
    fn stage_commands_log_the_line_flow_prints() {
        // A pass summary ends in " (<duration>)", which differs run to run.
        let untimed = |line: &str| line.rsplit_once(" (").unwrap().0.to_owned();
        let script = "revgen --hwb 3; tbs; revsimp; rptm; tpar";
        let staged = Shell::new().run_script(script).unwrap();
        let flowed = Shell::new()
            .run_script(&format!("flow \"{script}\""))
            .unwrap();
        for name in ["revgen", "tbs", "revsimp", "rptm", "tpar"] {
            let prefix = format!("[{name}] ");
            let staged = staged.iter().find_map(|l| l.strip_prefix(&prefix)).unwrap();
            let flowed = flowed
                .iter()
                .filter_map(|l| l.strip_prefix("[flow] "))
                .find(|l| l.starts_with(name))
                .unwrap();
            assert_eq!(untimed(staged), untimed(flowed), "{name}");
        }
    }

    #[test]
    fn flow_command_seeds_from_the_store() {
        let mut shell = Shell::new();
        let output = shell
            .run_script("revgen --perm \"0 2 3 5 7 1 4 6\"; flow \"revgen; dbs; revsimp; rptm; tpar\"; simulate")
            .unwrap();
        assert!(output.iter().any(|l| l.contains("[flow]")));
        assert!(output.iter().any(|l| l.contains("matches")));
        assert!(!output.iter().any(|l| l.contains("DOES NOT")));
    }

    #[test]
    fn flow_command_rejects_invalid_pipelines_up_front() {
        let mut shell = Shell::new();
        // Invalid pass order: typed error, nothing runs, store untouched.
        let err = shell
            .run_command("flow \"revgen --hwb 4; tpar\"")
            .unwrap_err();
        assert!(matches!(
            err,
            RevkitError::InvalidArguments {
                command: "flow",
                ..
            }
        ));
        assert!(shell.store().permutation().is_none());
        // Unknown pass.
        assert!(shell
            .run_command("flow \"revgen --hwb 4; frobnicate\"")
            .is_err());
        // Missing script.
        assert!(shell.run_command("flow").is_err());
        // Missing store entry for a passthrough pipeline.
        assert!(matches!(
            shell.run_command("flow \"revgen; tbs\""),
            Err(RevkitError::MissingStoreEntry { .. })
        ));
    }

    #[test]
    fn batch_command_reuses_the_cache_across_script_lines() {
        let mut shell = Shell::new();
        let output = shell
            .run_script(
                "batch --shots 128 --spec \"hwb 4\" --spec \"hwb 4\"\n\
                 batch --shots 256 --spec \"hwb 4\" --spec \"perm 0 2 3 5 7 1 4 6\"",
            )
            .unwrap();
        assert!(output
            .iter()
            .any(|l| l.contains("2 jobs (1 distinct), 1 compiled, 1 cache hits")));
        // The second line compiles only the new permutation oracle; the
        // repeated hwb 4 oracle is a cache hit from the first line.
        assert!(output.iter().any(
            |l| l.contains("2 jobs (2 distinct), 1 compiled, 1 cache hits (2 programs cached)")
        ));
    }

    #[test]
    fn batch_stats_logs_prometheus_metrics() {
        let mut shell = Shell::new();
        let output = shell
            .run_script("batch --shots 32 --spec \"hwb 3\"\nbatch --stats")
            .unwrap();
        assert!(output
            .iter()
            .any(|l| l.contains("# TYPE qdaflow_jobs_submitted_total counter")));
        assert!(output.iter().any(|l| l == "qdaflow_jobs_submitted_total 1"));
        assert!(output.iter().any(|l| l == "qdaflow_jobs_completed_total 1"));
    }

    #[test]
    fn batch_resume_replays_journaled_jobs_across_shells() {
        let dir = std::env::temp_dir().join(format!("qdaflow-shell-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("batch.journal");
        let line = format!(
            "batch --resume {} --shots 64 --spec \"hwb 3\" --spec \"perm 1 0 3 2\"",
            journal.display()
        );
        let first = Shell::new().run_script(&line).unwrap();
        assert!(first.iter().any(|l| l.contains("2 compiled")));
        // A brand-new shell — a restarted process — replays both jobs from
        // the journal without compiling or simulating anything.
        let mut shell = Shell::new();
        let output = shell.run_script(&format!("{line}\nbatch --stats")).unwrap();
        assert!(output
            .iter()
            .any(|l| l.contains("2 jobs (2 distinct), 0 compiled, 0 cache hits")));
        assert!(output.iter().any(|l| l == "qdaflow_jobs_resumed_total 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_commands_are_reported() {
        let mut shell = Shell::new();
        assert!(matches!(
            shell.run_command("frobnicate --now"),
            Err(RevkitError::UnknownCommand { .. })
        ));
    }

    #[test]
    fn scripts_skip_comments_and_blank_lines() {
        let mut shell = Shell::new();
        let output = shell
            .run_script("# a comment\n\nrevgen --hwb 3\n tbs ;; ps -c")
            .unwrap();
        assert!(output.iter().any(|l| l.contains("[tbs]")));
    }

    #[test]
    fn help_lists_builtin_commands() {
        let shell = Shell::new();
        let help = shell.help();
        for expected in [
            "revgen", "tbs", "dbs", "esopbs", "revsimp", "rptm", "tpar", "ps",
        ] {
            assert!(help.iter().any(|(name, _)| name == expected), "{expected}");
        }
    }

    #[test]
    fn register_replaces_commands_by_name() {
        struct Fake;
        impl Command for Fake {
            fn name(&self) -> &'static str {
                "tbs"
            }
            fn description(&self) -> &'static str {
                "fake"
            }
            fn execute(&self, _: &[String], store: &mut Store) -> Result<(), RevkitError> {
                store.log("[fake-tbs]");
                Ok(())
            }
        }
        let mut shell = Shell::new();
        let before = shell.help().len();
        shell.register(Box::new(Fake));
        assert_eq!(shell.help().len(), before);
        shell.run_command("tbs").unwrap();
        assert!(shell.store().log_lines().iter().any(|l| l == "[fake-tbs]"));
    }

    #[test]
    fn dbs_based_pipeline_also_verifies() {
        let mut shell = Shell::new();
        let output = shell
            .run_script("revgen --perm \"0 2 3 5 7 1 4 6\"; dbs; revsimp; rptm; tpar; simulate")
            .unwrap();
        assert!(output.iter().any(|l| l.contains("matches")));
        assert!(!output.iter().any(|l| l.contains("DOES NOT")));
    }

    #[test]
    fn errors_propagate_from_commands() {
        let mut shell = Shell::new();
        assert!(matches!(
            shell.run_script("tbs"),
            Err(RevkitError::MissingStoreEntry { .. })
        ));
    }
}
