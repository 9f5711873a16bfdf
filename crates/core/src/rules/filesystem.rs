//! Deceptive files and device namespaces (Section II-B "Software
//! resources").

use winsim::{Api, ApiCall, Glob, NtStatus, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{merge_listing, Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Answers file-existence probes for the planted analysis-tool and guest
/// addition paths, resolves `\\.\` opens against the deceptive device
/// table, and appends matching deceptive entries to directory listings.
pub struct FilesystemRule;

impl DeceptionRule for FilesystemRule {
    fn name(&self) -> &'static str {
        "filesystem"
    }

    fn category(&self) -> Category {
        Category::File
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::NtQueryAttributesFile, Tier::Core),
            (Api::GetFileAttributes, Tier::Core),
            (Api::CreateFile, Tier::Core),
            (Api::FindFirstFile, Tier::Core),
            (Api::NtCreateFile, Tier::Wear),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        match call.api {
            Api::NtQueryAttributesFile | Api::GetFileAttributes => {
                if let Some(p) = live.hit(state.db.file(call.args.str(0))) {
                    let path = call.args.str(0).to_owned();
                    return match call.api {
                        Api::GetFileAttributes => Outcome::Deceive(
                            Deception::new(Category::File, path, p, "FILE_ATTRIBUTE_NORMAL"),
                            Value::U64(0x80),
                        ),
                        _ => Outcome::Deceive(
                            Deception::new(Category::File, path, p, "STATUS_SUCCESS"),
                            Value::Status(NtStatus::Success),
                        ),
                    };
                }
                Outcome::Pass
            }
            Api::NtCreateFile | Api::CreateFile => {
                if call.args.str(1) == "create" {
                    return Outcome::Pass;
                }
                let hit = match call.args.str(0).strip_prefix(r"\\.\") {
                    Some(dev) => live.hit(state.db.device(dev)).map(|p| (Category::Device, p)),
                    None => live.hit(state.db.file(call.args.str(0))).map(|p| (Category::File, p)),
                };
                if let Some((category, p)) = hit {
                    let path = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(category, path, p, "STATUS_SUCCESS"),
                        Value::Status(NtStatus::Success),
                    );
                }
                Outcome::Pass
            }
            Api::FindFirstFile => {
                let pattern = call.args.str(0).to_owned();
                let glob = Glob::new(&pattern);
                let files = state.db.files().iter().filter(|e| glob.matches(&e.name));
                merge_listing(call.call_original(), None, files, live, |p, n| {
                    let what = format!("{n} deceptive entries appended");
                    Deception::new(Category::File, pattern, p, what)
                })
            }
            _ => Outcome::Pass,
        }
    }
}
