// Process credentials: the uid/gid triples and capability sets that every
// policy decision in this system keys on.

#ifndef SRC_KERNEL_CRED_H_
#define SRC_KERNEL_CRED_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/kernel/capability.h"
#include "src/vfs/types.h"

namespace protego {

struct Cred {
  Uid ruid = 0, euid = 0, suid = 0, fsuid = 0;
  Gid rgid = 0, egid = 0, sgid = 0, fsgid = 0;
  std::vector<Gid> groups;  // supplementary groups

  CapSet effective;
  CapSet permitted;
  CapSet inheritable;

  static Cred ForUser(Uid uid, Gid gid, std::vector<Gid> supplementary = {}) {
    Cred c;
    c.ruid = c.euid = c.suid = c.fsuid = uid;
    c.rgid = c.egid = c.sgid = c.fsgid = gid;
    c.groups = std::move(supplementary);
    if (uid == kRootUid) {
      c.effective = CapSet::All();
      c.permitted = CapSet::All();
    }
    return c;
  }

  static Cred Root() { return ForUser(kRootUid, kRootGid); }

  bool InGroup(Gid gid) const {
    return egid == gid || std::find(groups.begin(), groups.end(), gid) != groups.end();
  }

  // "uid=1000 euid=0 gid=1000 caps=CAP_SETUID" for audit messages.
  std::string ToString() const;
};

}  // namespace protego

#endif  // SRC_KERNEL_CRED_H_
