// In-memory inode for the simulated filesystem. stat reads its fields
// without a lock, under a per-inode sequence count (Inode::seq), and an
// installed program hangs off its file's inode (Inode::program).

#ifndef SRC_VFS_INODE_H_
#define SRC_VFS_INODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/base/result.h"
#include "src/vfs/types.h"

namespace protego {

// Callbacks backing a synthetic (procfs/sysfs-style) file. Reads are
// generated on demand; writes are interpreted by the owning subsystem
// (e.g. the Protego LSM's /proc/protego/mounts policy file).
struct SyntheticOps {
  std::function<std::string()> read;
  std::function<Result<Unit>(std::string_view)> write;
};

// The fields stat(2) reports of one inode.
struct InodeStat {
  uint64_t ino = 0;
  uint32_t mode = 0;
  Uid uid = 0;
  Gid gid = 0;
  size_t size = 0;
  uint64_t mtime = 0;
  uint32_t rdev_major = 0;
  uint32_t rdev_minor = 0;
};

// What exec runs from an installed program's inode (src/kernel/kernel.h).
struct Program;

// A file's metadata and (for regular files) contents. Owned by a Vnode.
//
// mode/uid/gid, the size and the mtime are lock-free atomics: writers
// (chmod, chown, write) store new values under the inode's VFS data stripe,
// while permission checks and stat on other task threads read them without
// any lock. A permission check reads each field once, so a racing chmod
// gives it old-or-new bits (as on Linux), the access-check-vs-chmod TOCTTOU
// window the race corpus exercises. stat reads them all under `seq`, a
// sequence count each such writer makes odd while it changes them, and
// retries when the count moved: it never sees half of a chown. The contents
// and the block charge flag are guarded by the data stripe; ino, the device
// numbers, `synthetic` and `program` never change once the inode is linked.
// std::atomic's operator=()/&=()/implicit load keep existing call sites
// (`inode.mode & kIfMask`, `mode &= ~kSetUidBit`) source-compatible.
struct Inode {
  uint64_t ino = 0;
  std::atomic<uint32_t> mode{0};  // type bits | permission bits (incl. setuid 04000)
  std::atomic<Uid> uid{kRootUid};
  std::atomic<Gid> gid{kRootGid};
  std::atomic<uint32_t> seq{0};  // odd while a writer changes stat's fields
  std::atomic<uint64_t> mtime{0};
  std::atomic<size_t> size{0};  // data.size(), readable without the stripe
  std::string data;  // regular-file contents; symlink target for kIfLnk

  // Device node identity (kIfChr/kIfBlk only).
  uint32_t rdev_major = 0;
  uint32_t rdev_minor = 0;

  // Non-null for synthetic files; reads/writes bypass `data`.
  std::shared_ptr<SyntheticOps> synthetic;

  // Non-null on an installed program's inode: what exec runs, with the
  // file capabilities it grants. The kernel sets it before the file is
  // linked and owns it; the VFS never reads it.
  Program* program = nullptr;

  // True when this inode's `data` bytes are charged against the VFS block
  // quota (regular non-synthetic files created through Vfs::LinkAt or
  // written through Vfs::WriteNode). Bootstrap populators that bypass
  // LinkAt leave it false; the first quota-aware write charges in full.
  bool charged = false;

  // Atomic members delete the implicit copy operations; Stat/snapshot
  // paths still copy inodes by value, so restore them field-wise.
  Inode() = default;
  Inode(uint32_t mode_bits, Uid owner, Gid group, std::string contents = "")
      : mode(mode_bits), uid(owner), gid(group), size(contents.size()),
        data(std::move(contents)) {}
  Inode(const Inode& other) { *this = other; }
  Inode& operator=(const Inode& other) {
    if (this == &other) {
      return *this;
    }
    ino = other.ino;
    mode.store(other.mode.load(std::memory_order_relaxed), std::memory_order_relaxed);
    uid.store(other.uid.load(std::memory_order_relaxed), std::memory_order_relaxed);
    gid.store(other.gid.load(std::memory_order_relaxed), std::memory_order_relaxed);
    mtime.store(other.mtime.load(std::memory_order_relaxed), std::memory_order_relaxed);
    size.store(other.size.load(std::memory_order_relaxed), std::memory_order_relaxed);
    data = other.data;
    rdev_major = other.rdev_major;
    rdev_minor = other.rdev_minor;
    synthetic = other.synthetic;
    program = other.program;
    charged = other.charged;
    return *this;
  }

  uint32_t ModeRelaxed() const { return mode.load(std::memory_order_relaxed); }
  bool IsDir() const { return IsDirMode(ModeRelaxed()); }
  bool IsReg() const { return IsRegMode(ModeRelaxed()); }
  bool IsSymlink() const { return IsLnkMode(ModeRelaxed()); }
  bool IsDevice() const { return IsDeviceMode(ModeRelaxed()); }
  bool IsSetUid() const { return (ModeRelaxed() & kSetUidBit) != 0; }
  bool IsSetGid() const { return (ModeRelaxed() & kSetGidBit) != 0; }
  uint32_t Perms() const { return ModeRelaxed() & kPermMask; }
};

// Pure DAC permission check against one identity. `in_group` must report
// whether the caller's gid or supplementary groups include a gid.
// CAP_DAC_OVERRIDE-style bypass is layered above this by the kernel.
bool DacPermits(const Inode& inode, Uid uid, const std::function<bool(Gid)>& in_group, int may);

}  // namespace protego

#endif  // SRC_VFS_INODE_H_
