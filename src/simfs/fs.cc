#include "src/simfs/fs.h"

#include <algorithm>
#include <utility>

#include "src/simfs/path.h"

namespace lw {

// Inodes are immutable once stored in the table: every mutation clones the
// struct (FileData inside shares its chunks) and republishes the pointer.
struct SimFsInode {
  uint64_t ino = 0;
  NodeType type = NodeType::kFile;
  uint64_t version = 0;
  FileData data;                             // kFile
  std::map<std::string, uint64_t> entries;   // kDir
};

namespace {

std::shared_ptr<SimFsInode> CloneInode(const SimFsInode& inode, uint64_t new_version) {
  auto copy = std::make_shared<SimFsInode>(inode);
  copy->version = new_version;
  return copy;
}

}  // namespace

SimFs::SimFs(Options options) : options_(options), inodes_(options.max_inodes) {
  auto root = std::make_shared<SimFsInode>();
  root->ino = kRootIno;
  root->type = NodeType::kDir;
  root->version = ++version_tick_;
  inodes_.Set(kRootIno, std::move(root));
  live_inodes_ = 1;
}

SimFs::InodePtr SimFs::GetInode(uint64_t ino) const {
  if (ino >= options_.max_inodes) {
    return nullptr;
  }
  return inodes_.Peek(static_cast<uint32_t>(ino));
}

void SimFs::SetInode(uint64_t ino, InodePtr inode) {
  inodes_.Set(static_cast<uint32_t>(ino), std::move(inode));
}

Result<uint64_t> SimFs::AllocIno() {
  // Linear scan from the cursor; the table is sparse-friendly, so this is O(1)
  // amortized until the namespace genuinely fills up.
  for (uint64_t probe = 0; probe < options_.max_inodes; ++probe) {
    uint64_t candidate = next_ino_ + probe;
    if (candidate >= options_.max_inodes) {
      candidate = (candidate % options_.max_inodes) + kRootIno + 1;
    }
    if (GetInode(candidate) == nullptr) {
      next_ino_ = candidate + 1;
      return candidate;
    }
  }
  return OutOfMemory("simfs: inode table full");
}

Result<uint64_t> SimFs::ResolveParent(std::string_view path, std::string* name) const {
  std::vector<std::string> components;
  if (!SplitPath(path, &components)) {
    return InvalidArgument("simfs: bad path");
  }
  if (components.empty()) {
    return InvalidArgument("simfs: path is the root");
  }
  *name = components.back();
  components.pop_back();
  uint64_t ino = kRootIno;
  for (const std::string& part : components) {
    InodePtr dir = GetInode(ino);
    if (dir == nullptr || dir->type != NodeType::kDir) {
      return NotFound("simfs: missing directory in path");
    }
    auto it = dir->entries.find(part);
    if (it == dir->entries.end()) {
      return NotFound("simfs: missing directory in path");
    }
    ino = it->second;
  }
  InodePtr parent = GetInode(ino);
  if (parent == nullptr || parent->type != NodeType::kDir) {
    return NotFound("simfs: parent is not a directory");
  }
  return ino;
}

Result<uint64_t> SimFs::Lookup(std::string_view path) const {
  std::vector<std::string> components;
  if (!SplitPath(path, &components)) {
    return InvalidArgument("simfs: bad path");
  }
  uint64_t ino = kRootIno;
  for (const std::string& part : components) {
    InodePtr node = GetInode(ino);
    if (node == nullptr || node->type != NodeType::kDir) {
      return NotFound("simfs: no such path");
    }
    auto it = node->entries.find(part);
    if (it == node->entries.end()) {
      return NotFound("simfs: no such path");
    }
    ino = it->second;
  }
  return ino;
}

Result<uint64_t> SimFs::CreateNode(std::string_view path, NodeType type) {
  std::string name;
  LW_ASSIGN_OR_RETURN(uint64_t parent_ino, ResolveParent(path, &name));
  InodePtr parent = GetInode(parent_ino);
  if (parent->entries.count(name) != 0) {
    return AlreadyExists("simfs: entry exists");
  }
  LW_ASSIGN_OR_RETURN(uint64_t ino, AllocIno());

  auto node = std::make_shared<SimFsInode>();
  node->ino = ino;
  node->type = type;
  node->version = ++version_tick_;
  SetInode(ino, std::move(node));

  auto new_parent = CloneInode(*parent, ++version_tick_);
  new_parent->entries.emplace(std::move(name), ino);
  SetInode(parent_ino, std::move(new_parent));
  ++live_inodes_;
  return ino;
}

Result<uint64_t> SimFs::Create(std::string_view path) {
  return CreateNode(path, NodeType::kFile);
}

Result<uint64_t> SimFs::Mkdir(std::string_view path) {
  return CreateNode(path, NodeType::kDir);
}

Result<SimFsStat> SimFs::StatIno(uint64_t ino) const {
  InodePtr node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  SimFsStat st;
  st.ino = node->ino;
  st.type = node->type;
  st.size = node->type == NodeType::kFile ? node->data.size() : node->entries.size();
  st.version = node->version;
  return st;
}

Result<SimFsStat> SimFs::Stat(std::string_view path) const {
  LW_ASSIGN_OR_RETURN(uint64_t ino, Lookup(path));
  return StatIno(ino);
}

Status SimFs::Unlink(std::string_view path) {
  std::string name;
  LW_ASSIGN_OR_RETURN(uint64_t parent_ino, ResolveParent(path, &name));
  InodePtr parent = GetInode(parent_ino);
  auto it = parent->entries.find(name);
  if (it == parent->entries.end()) {
    return NotFound("simfs: no such entry");
  }
  uint64_t victim_ino = it->second;
  InodePtr victim = GetInode(victim_ino);
  LW_CHECK(victim != nullptr);
  if (victim->type == NodeType::kDir && !victim->entries.empty()) {
    return BadState("simfs: directory not empty");
  }
  auto new_parent = CloneInode(*parent, ++version_tick_);
  new_parent->entries.erase(name);
  SetInode(parent_ino, std::move(new_parent));
  SetInode(victim_ino, nullptr);
  --live_inodes_;
  return OkStatus();
}

Status SimFs::Rename(std::string_view from, std::string_view to) {
  std::string from_name;
  std::string to_name;
  LW_ASSIGN_OR_RETURN(uint64_t from_parent_ino, ResolveParent(from, &from_name));
  LW_ASSIGN_OR_RETURN(uint64_t to_parent_ino, ResolveParent(to, &to_name));

  InodePtr from_parent = GetInode(from_parent_ino);
  auto from_it = from_parent->entries.find(from_name);
  if (from_it == from_parent->entries.end()) {
    return NotFound("simfs: rename source missing");
  }
  uint64_t moved_ino = from_it->second;

  InodePtr to_parent = GetInode(to_parent_ino);
  auto to_it = to_parent->entries.find(to_name);
  uint64_t replaced_ino = 0;
  if (to_it != to_parent->entries.end()) {
    if (to_it->second == moved_ino) {
      return OkStatus();  // rename to self
    }
    InodePtr target = GetInode(to_it->second);
    LW_CHECK(target != nullptr);
    if (target->type == NodeType::kDir) {
      return BadState("simfs: rename onto a directory");
    }
    InodePtr moved = GetInode(moved_ino);
    if (moved->type == NodeType::kDir) {
      return BadState("simfs: rename directory onto a file");
    }
    replaced_ino = to_it->second;
  }

  // A directory must not be moved under itself (classic rename cycle check).
  InodePtr moved = GetInode(moved_ino);
  if (moved->type == NodeType::kDir) {
    std::string to_norm = NormalizePath(to);
    std::string from_norm = NormalizePath(from);
    if (to_norm.size() > from_norm.size() && to_norm.compare(0, from_norm.size(), from_norm) == 0 &&
        to_norm[from_norm.size()] == '/') {
      return BadState("simfs: rename into own subtree");
    }
  }

  if (from_parent_ino == to_parent_ino) {
    auto p = CloneInode(*from_parent, ++version_tick_);
    p->entries.erase(from_name);
    p->entries[to_name] = moved_ino;
    SetInode(from_parent_ino, std::move(p));
  } else {
    auto fp = CloneInode(*from_parent, ++version_tick_);
    fp->entries.erase(from_name);
    SetInode(from_parent_ino, std::move(fp));
    auto tp = CloneInode(*GetInode(to_parent_ino), ++version_tick_);
    tp->entries[to_name] = moved_ino;
    SetInode(to_parent_ino, std::move(tp));
  }
  if (replaced_ino != 0) {
    SetInode(replaced_ino, nullptr);
    --live_inodes_;
  }
  return OkStatus();
}

Result<std::vector<std::string>> SimFs::Readdir(std::string_view path) const {
  LW_ASSIGN_OR_RETURN(uint64_t ino, Lookup(path));
  InodePtr node = GetInode(ino);
  if (node->type != NodeType::kDir) {
    return BadState("simfs: not a directory");
  }
  std::vector<std::string> names;
  names.reserve(node->entries.size());
  for (const auto& [name, child] : node->entries) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

Result<size_t> SimFs::ReadAt(uint64_t ino, uint64_t offset, void* out, size_t len) const {
  InodePtr node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  if (node->type != NodeType::kFile) {
    return BadState("simfs: not a regular file");
  }
  return node->data.Read(offset, out, len);
}

Result<size_t> SimFs::WriteAt(uint64_t ino, uint64_t offset, const void* data, size_t len) {
  InodePtr node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  if (node->type != NodeType::kFile) {
    return BadState("simfs: not a regular file");
  }
  auto fresh = CloneInode(*node, ++version_tick_);
  fresh->data = node->data.Write(offset, data, len);
  SetInode(ino, std::move(fresh));
  return len;
}

Status SimFs::Truncate(uint64_t ino, uint64_t new_size) {
  InodePtr node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  if (node->type != NodeType::kFile) {
    return BadState("simfs: not a regular file");
  }
  auto fresh = CloneInode(*node, ++version_tick_);
  fresh->data = node->data.Truncate(new_size);
  SetInode(ino, std::move(fresh));
  return OkStatus();
}

SimFs::State SimFs::TakeSnapshot() const {
  State state;
  state.inodes_ = inodes_;  // persistent map: O(1) root copy
  state.next_ino_ = next_ino_;
  state.live_inodes_ = live_inodes_;
  state.version_tick_ = version_tick_;
  return state;
}

void SimFs::Restore(const State& state) {
  LW_CHECK_MSG(state.valid(), "simfs: restoring a default-constructed State");
  LW_CHECK_MSG(state.inodes_.capacity() == inodes_.capacity(),
               "simfs: snapshot from a different filesystem");
  inodes_ = state.inodes_;
  next_ino_ = state.next_ino_;
  live_inodes_ = state.live_inodes_;
  version_tick_ = state.version_tick_;
}

uint64_t SimFs::MaterializedBytes() const {
  uint64_t total = 0;
  inodes_.ForEach([&total](uint32_t /*ino*/, const InodePtr& node) {
    if (node != nullptr && node->type == NodeType::kFile) {
      total += node->data.MaterializedBytes();
    }
  });
  return total;
}

}  // namespace lw
