//! The program loader: executable + environment → process image.
//!
//! This is where the paper's environment-size bias enters the system. A
//! UNIX kernel copies the environment strings (and the pointer vector that
//! indexes them) onto the **top of the new process's stack** before the
//! program starts; everything the program later puts on the stack sits
//! below them. Growing `$PATH` by one byte therefore moves the initial
//! stack pointer — and with it the cache-set and TLB-page mapping of every
//! stack frame and stack buffer in the program. The loader reproduces that
//! layout exactly:
//!
//! ```text
//! STACK_TOP ─▶ ┌──────────────────────────────┐
//!              │ "NAME=VALUE\0" strings        │
//!              │ envp pointer array (8 B each) │
//!              ├──────────────────────────────┤ ◀─ aligned down to 16
//!              │ initial sp                    │
//!              │ … frames grow down …          │
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::layout::{align_down, STACK_MAX, STACK_TOP};
use crate::link::Executable;
use crate::mem::PagedMem;

/// Process-wide monotonic image-generation counter. Every
/// [`crate::link::Linker::link`] stamps the next value on the produced
/// [`Executable`] (generations start at 1; 0 means "no image"), and the
/// loader copies it onto the [`Process`], so a consumer holding decoded
/// derivatives of an older image can detect staleness with one compare.
static IMAGE_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Draws the next image generation (used by the linker at stamp time).
#[must_use]
pub fn next_image_generation() -> u64 {
    IMAGE_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvVar {
    /// Variable name (no `=`).
    pub name: String,
    /// Variable value.
    pub value: String,
}

impl EnvVar {
    /// Creates a variable.
    #[must_use]
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> EnvVar {
        EnvVar {
            name: name.into(),
            value: value.into(),
        }
    }

    /// Bytes this variable occupies on the stack (`NAME=VALUE\0`).
    #[must_use]
    pub fn stack_bytes(&self) -> u32 {
        (self.name.len() + 1 + self.value.len() + 1) as u32
    }
}

/// A process environment: an ordered list of variables.
///
/// # Examples
///
/// ```
/// use biaslab_toolchain::load::Environment;
///
/// let env = Environment::of_total_size(1000);
/// assert_eq!(env.stack_bytes(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Environment {
    vars: Vec<EnvVar>,
}

impl Environment {
    /// The empty environment.
    #[must_use]
    pub fn new() -> Environment {
        Environment::default()
    }

    /// An environment whose total stack footprint (strings plus pointer
    /// array) is exactly `bytes` — the paper's experimental knob. Built
    /// from a single `BIAS` padding variable when possible.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 0 and too small to hold any variable
    /// (minimum is 16: an 8-byte pointer array terminator plus `B=\0` padded).
    #[must_use]
    pub fn of_total_size(bytes: u32) -> Environment {
        Environment::of_total_size_with_fill(bytes, 'x')
    }

    /// Like [`Environment::of_total_size`], but with a chosen padding
    /// character. Two environments of the same size and different fill are
    /// the causal-analysis *placebo*: they occupy identical stack bytes, so
    /// any measured difference between them would falsify the
    /// stack-placement explanation.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is nonzero but below the 23-byte minimum
    /// footprint, or `fill` is not ASCII.
    #[must_use]
    pub fn of_total_size_with_fill(bytes: u32, fill: char) -> Environment {
        assert!(fill.is_ascii(), "fill must be a single-byte character");
        if bytes == 0 {
            return Environment::new();
        }
        // Footprint = strlen("BIAS=" + value) + 1  +  8 * (nvars + 1).
        assert!(bytes >= 23, "minimum non-empty environment is 23 bytes");
        let value_len = bytes - 16 - 6; // "BIAS=" + NUL = 6, pointers = 16
        let mut env = Environment::new();
        env.push(EnvVar::new(
            "BIAS",
            fill.to_string().repeat(value_len as usize),
        ));
        debug_assert_eq!(env.stack_bytes(), bytes);
        env
    }

    /// Appends a variable.
    pub fn push(&mut self, var: EnvVar) {
        self.vars.push(var);
    }

    /// The variables in order.
    #[must_use]
    pub fn vars(&self) -> &[EnvVar] {
        &self.vars
    }

    /// Total bytes the environment occupies on the stack: all strings plus
    /// the null-terminated pointer array.
    #[must_use]
    pub fn stack_bytes(&self) -> u32 {
        let strings: u32 = self.vars.iter().map(EnvVar::stack_bytes).sum();
        strings + 8 * (self.vars.len() as u32 + 1)
    }
}

impl FromIterator<EnvVar> for Environment {
    fn from_iter<T: IntoIterator<Item = EnvVar>>(iter: T) -> Environment {
        Environment {
            vars: iter.into_iter().collect(),
        }
    }
}

/// A loaded process, ready to run on a simulated machine.
#[derive(Debug, Clone)]
pub struct Process {
    /// Data and stack memory (text is fetched from the executable).
    pub mem: PagedMem,
    /// Initial program counter (the startup shim).
    pub entry: u32,
    /// Initial stack pointer (below the environment block).
    pub sp: u32,
    /// Initial global pointer.
    pub gp: u32,
    /// Arguments placed in `r1..r6` at startup.
    pub args: Vec<u64>,
    /// Bytes the environment occupies above `sp`.
    pub env_bytes: u32,
    /// Generation of the image this process was loaded from (see
    /// [`Executable::image_generation`]).
    pub image_generation: u64,
}

/// Loader failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The environment exceeds half the stack budget.
    EnvTooLarge(u32),
    /// More than 6 arguments were supplied.
    TooManyArgs(usize),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::EnvTooLarge(n) => write!(f, "environment of {n} bytes exceeds the stack"),
            LoadError::TooManyArgs(n) => write!(f, "{n} arguments exceed the 6-register ABI"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Builds process images from executables.
#[derive(Debug, Clone, Default)]
pub struct Loader {
    stack_shift: u32,
}

impl Loader {
    /// A loader with the default (zero) extra stack shift.
    #[must_use]
    pub fn new() -> Loader {
        Loader::default()
    }

    /// Shifts the initial stack pointer down by `bytes` *in addition to*
    /// the environment block — the loader-level intervention used by the
    /// causal-analysis experiments to move the stack without touching the
    /// environment.
    #[must_use]
    pub fn stack_shift(mut self, bytes: u32) -> Loader {
        self.stack_shift = bytes;
        self
    }

    /// Produces a process image for `exe` under environment `env`, with
    /// `args` delivered in `r1..r6`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if the environment is oversized or more than
    /// 6 arguments are given.
    pub fn load(
        &self,
        exe: &Executable,
        env: &Environment,
        args: &[u64],
    ) -> Result<Process, LoadError> {
        if args.len() > 6 {
            return Err(LoadError::TooManyArgs(args.len()));
        }
        let env_bytes = env.stack_bytes() + self.stack_shift;
        if env_bytes > STACK_MAX / 2 {
            return Err(LoadError::EnvTooLarge(env_bytes));
        }

        let mut mem = PagedMem::new();
        // Data segment.
        mem.write_bytes(exe.data_base(), exe.data());

        // Environment block: strings first (descending from STACK_TOP),
        // then the pointer array beneath them.
        let mut cursor = STACK_TOP;
        let mut ptrs = Vec::with_capacity(env.vars().len());
        for var in env.vars() {
            let s = format!("{}={}", var.name, var.value);
            cursor -= s.len() as u32 + 1;
            mem.write_bytes(cursor, s.as_bytes());
            mem.write_u8(cursor + s.len() as u32, 0);
            ptrs.push(cursor);
        }
        cursor -= 8; // NULL terminator of the pointer array
        mem.write_u64(cursor, 0);
        for &p in ptrs.iter().rev() {
            cursor -= 8;
            mem.write_u64(cursor, u64::from(p));
        }
        cursor -= self.stack_shift;

        let sp = align_down(cursor, crate::layout::STACK_ALIGN);
        Ok(Process {
            mem,
            entry: exe.entry(),
            sp,
            gp: exe.gp(),
            args: args.to_vec(),
            env_bytes,
            image_generation: exe.image_generation(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::codegen::compile;
    use crate::link::Linker;
    use crate::opt::{optimize, OptLevel};

    fn tiny_exe() -> Executable {
        let mut mb = ModuleBuilder::new();
        mb.function("main", 0, false, |fb| fb.ret(None));
        let m = mb.finish().unwrap();
        Linker::new()
            .link(&compile(&optimize(&m, OptLevel::O2), OptLevel::O2), "main")
            .unwrap()
    }

    #[test]
    fn empty_environment_gives_aligned_top_stack() {
        let p = Loader::new()
            .load(&tiny_exe(), &Environment::new(), &[])
            .unwrap();
        // Only the 8-byte envp NULL sits above sp.
        assert_eq!(p.sp, align_down(STACK_TOP - 8, 16));
        assert_eq!(p.sp % 16, 0);
    }

    #[test]
    fn environment_size_moves_sp_down() {
        let exe = tiny_exe();
        let p0 = Loader::new()
            .load(&exe, &Environment::of_total_size(0), &[])
            .unwrap();
        let p1 = Loader::new()
            .load(&exe, &Environment::of_total_size(100), &[])
            .unwrap();
        let p2 = Loader::new()
            .load(&exe, &Environment::of_total_size(612), &[])
            .unwrap();
        assert!(p1.sp < p0.sp);
        assert!(p2.sp < p1.sp);
        // One extra byte can change sp (this is the paper's point): find a
        // size where it does.
        let mut moved = false;
        for n in 100..150 {
            let a = Loader::new()
                .load(&exe, &Environment::of_total_size(n), &[])
                .unwrap();
            let b = Loader::new()
                .load(&exe, &Environment::of_total_size(n + 1), &[])
                .unwrap();
            if a.sp != b.sp {
                moved = true;
                break;
            }
        }
        assert!(moved);
    }

    #[test]
    fn of_total_size_is_exact() {
        for n in [23u32, 24, 64, 100, 613, 4096] {
            assert_eq!(Environment::of_total_size(n).stack_bytes(), n, "n={n}");
        }
    }

    #[test]
    fn env_strings_are_written_to_memory() {
        let exe = tiny_exe();
        let mut env = Environment::new();
        env.push(EnvVar::new("HOME", "/root"));
        let p = Loader::new().load(&exe, &env, &[]).unwrap();
        let s = p.mem.read_bytes(STACK_TOP - 11, 10);
        assert_eq!(&s, b"HOME=/root");
        // Pointer array below the strings points at the string.
        let ptr = p.mem.read_u64(STACK_TOP - 11 - 16);
        assert_eq!(ptr, u64::from(STACK_TOP - 11));
    }

    #[test]
    fn stack_shift_moves_sp_without_env() {
        let exe = tiny_exe();
        let a = Loader::new().load(&exe, &Environment::new(), &[]).unwrap();
        let b = Loader::new()
            .stack_shift(64)
            .load(&exe, &Environment::new(), &[])
            .unwrap();
        assert_eq!(a.sp - b.sp, 64);
    }

    #[test]
    fn data_segment_is_populated() {
        use crate::ir::Global;
        let mut mb = ModuleBuilder::new();
        mb.global(Global::from_words("g", &[0xABCD]));
        mb.function("main", 0, false, |fb| fb.ret(None));
        let m = mb.finish().unwrap();
        let exe = Linker::new()
            .link(&compile(&optimize(&m, OptLevel::O0), OptLevel::O0), "main")
            .unwrap();
        let p = Loader::new().load(&exe, &Environment::new(), &[]).unwrap();
        let addr = exe.symbol("g").unwrap().addr;
        assert_eq!(p.mem.read_u64(addr), 0xABCD);
    }

    #[test]
    fn too_many_args_rejected() {
        let exe = tiny_exe();
        let err = Loader::new()
            .load(&exe, &Environment::new(), &[0; 7])
            .unwrap_err();
        assert_eq!(err, LoadError::TooManyArgs(7));
    }

    #[test]
    fn oversized_environment_rejected() {
        let exe = tiny_exe();
        let err = Loader::new()
            .load(&exe, &Environment::of_total_size(STACK_MAX), &[])
            .unwrap_err();
        assert!(matches!(err, LoadError::EnvTooLarge(_)));
    }
}
