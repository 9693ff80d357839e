//! Flag parsing: [`Args`] and the options the build flags make.

use cla::prelude::*;
use std::str::FromStr;

/// Splits out flag values of the form `--flag value` / `-f value`.
pub struct Args<'a> {
    rest: Vec<&'a str>,
}

impl<'a> Args<'a> {
    pub fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter().map(String::as_str).collect(),
        }
    }

    /// Removes every `flag value` pair, returning the values.
    pub fn take_values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(pos) = self.rest.iter().position(|a| *a == flag) {
            if pos + 1 >= self.rest.len() {
                return Err(format!("`{flag}` needs a value"));
            }
            out.push(self.rest[pos + 1].to_string());
            self.rest.drain(pos..=pos + 1);
        }
        Ok(out)
    }

    /// The value of the last `flag V` (all are removed); `None` without the
    /// flag.
    pub fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        Ok(self.take_values(flag)?.pop())
    }

    /// [`Args::take_value`], parsed. `bad(V)` is the error for a value that
    /// does not parse.
    pub fn take_parsed<T: FromStr>(
        &mut self,
        flag: &str,
        bad: impl FnOnce(&str) -> String,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.take_value(flag)? else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| bad(&v))
    }

    /// [`Args::take_parsed`] for a number: the error is `{flag} needs a
    /// number`.
    pub fn take_number<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take_parsed(flag, |_| format!("{flag} needs a number"))
    }

    /// Removes a boolean flag; true when present.
    pub fn take_flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| *a != flag);
        self.rest.len() != before
    }

    /// Everything after `marker` (inclusive removal), e.g. `--print a b c`.
    pub fn take_tail(&mut self, marker: &str) -> Vec<String> {
        let pos = self.rest.iter().position(|a| *a == marker);
        let tail = self.rest.drain(pos.unwrap_or(self.rest.len())..);
        tail.skip(1).map(str::to_string).collect()
    }

    pub fn positional(self) -> Vec<String> {
        self.rest.into_iter().map(str::to_string).collect()
    }

    /// The preprocessor flags: `-I dir` and `-D NAME[=V]` (V defaults to 1).
    pub fn pp_options(&mut self) -> Result<PpOptions, String> {
        let include_dirs = self.take_values("-I")?;
        let defines = (self.take_values("-D")?.into_iter())
            .map(|d| match d.split_once('=') {
                Some((n, v)) => (n.to_string(), v.to_string()),
                None => (d, "1".to_string()),
            })
            .collect();
        Ok(PpOptions {
            include_dirs,
            defines,
            ..PpOptions::default()
        })
    }

    /// The lowering flag: `--field-independent`.
    pub fn lower_options(&mut self) -> LowerOptions {
        if self.take_flag("--field-independent") {
            LowerOptions::default().field_independent()
        } else {
            LowerOptions::default()
        }
    }

    /// `compile`'s build: [`Args::pp_options`] and [`Args::lower_options`]
    /// over the library's strict, serial [`PipelineOptions::default`].
    pub fn pipeline_options(&mut self) -> Result<PipelineOptions, String> {
        Ok(PipelineOptions {
            pp: self.pp_options()?,
            lower: self.lower_options(),
            ..PipelineOptions::default()
        })
    }

    /// `analyze`'s build: [`Args::pipeline_options`] with `--jobs N`,
    /// `--strict`, `--unknown-summaries` and `--deadline-ms N`.
    pub fn analyze_options(&mut self) -> Result<PipelineOptions, String> {
        let mut opts = self.pipeline_options()?;
        // Asking for a pool size (0 = one per core) asks for a pool.
        let jobs: Option<usize> = self.take_number("--jobs")?;
        (opts.parallel_compile, opts.jobs) = (jobs.is_some(), jobs.unwrap_or(0));
        // The CLI default is quarantine-and-continue: a hostile or broken
        // file lands in the quarantine ledger and the analysis covers the
        // rest. `--strict` restores fail-fast (the library default).
        opts.strict = self.take_flag("--strict");
        opts.unknown_summaries = self.take_flag("--unknown-summaries");
        opts.pp.limits.deadline_ms = self.take_number("--deadline-ms")?.unwrap_or(0);
        Ok(opts)
    }
}
