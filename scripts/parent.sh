# Sourced by identity.sh and pair.sh. export_parent <ref> <dir> writes the
# committed files of <ref> into <dir>: a `git archive` export, not a
# worktree, so an interrupted run leaves nothing behind in .git. Expects
# $root to be the repository.
export_parent() {
	mkdir -p "$2"
	git -C "$root" archive "$1" | tar -x -C "$2"
}
