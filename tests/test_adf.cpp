// Tests for the framework substrate: curated lifecycle facts, per-level
// image emission, synthetic bulk determinism and the permission catalogue.
#include <gtest/gtest.h>

#include <cstdio>

#include "adf/image.hpp"
#include "adf/permissions.hpp"
#include "adf/repository.hpp"
#include "adf/spec.hpp"
#include "adf/synthetic.hpp"
#include "support/sdmc.hpp"

namespace saintdroid {
namespace {

// --- lifecycle semantics ------------------------------------------------------

TEST(Lifecycle, ExistsAt) {
  const Lifecycle never_removed{11, 0};
  EXPECT_FALSE(never_removed.exists_at(10));
  EXPECT_TRUE(never_removed.exists_at(11));
  EXPECT_TRUE(never_removed.exists_at(kMaxApiLevel));
  const Lifecycle removed{8, 23};
  EXPECT_TRUE(removed.exists_at(8));
  EXPECT_TRUE(removed.exists_at(22));
  EXPECT_FALSE(removed.exists_at(23));
  EXPECT_EQ(removed.existence(), ApiInterval(8, 22));
}

// --- curated facts the paper's examples rely on -------------------------------

TEST(CuratedSpec, PaperFacts) {
  const FrameworkSpec spec = curated_framework_spec();
  const auto intro = [&](const char* cls, const char* method) {
    const MethodSpec* m = spec.find_method(cls, method);
    return m ? m->life.introduced : -1;
  };
  EXPECT_EQ(intro("android/content/Context", "getColorStateList"), 23);
  EXPECT_EQ(intro("android/app/Activity", "getFragmentManager"), 11);
  EXPECT_EQ(intro("android/view/View", "drawableHotspotChanged"), 21);
  EXPECT_EQ(intro("android/app/Activity", "onRequestPermissionsResult"), 23);
  EXPECT_EQ(intro("android/app/Activity", "requestPermissions"), 23);
  EXPECT_EQ(intro("android/app/NotificationChannel", "<init>"), 26);
  EXPECT_EQ(intro("android/view/View", "setBackground"), 16);
  EXPECT_EQ(intro("android/app/Service", "onTrimMemory"), 14);
  EXPECT_EQ(intro("android/widget/TextView", "setTextAppearance"), 23);
  EXPECT_EQ(intro("android/view/Window", "setStatusBarColor"), 21);
  EXPECT_EQ(intro("android/app/NotificationManager",
                  "createNotificationChannel"), 26);
  EXPECT_EQ(intro("android/net/ConnectivityManager", "getActiveNetwork"),
            23);
  EXPECT_EQ(intro("android/content/SharedPreferences$Editor", "apply"), 9);
  EXPECT_EQ(intro("java/lang/Class", "forName"), 2);
  // Fragment has both onAttach overloads with distinct lifecycles.
  const ClassSpec* fragment = spec.find_class("android/app/Fragment");
  ASSERT_NE(fragment, nullptr);
  int attach_11 = 0;
  int attach_23 = 0;
  for (const auto& m : fragment->methods) {
    if (m.name != "onAttach") continue;
    if (m.life.introduced == 11) ++attach_11;
    if (m.life.introduced == 23) ++attach_23;
  }
  EXPECT_EQ(attach_11, 1);
  EXPECT_EQ(attach_23, 1);
  // AndroidHttpClient was removed at 23 (forward incompatibility material).
  const ClassSpec* http = spec.find_class("android/net/http/AndroidHttpClient");
  ASSERT_NE(http, nullptr);
  EXPECT_EQ(http->life.removed, 23);
}

TEST(CuratedSpec, PermissionFacts) {
  const FrameworkSpec spec = curated_framework_spec();
  EXPECT_EQ(spec.find_method("android/hardware/Camera", "open")->permission,
            "android.permission.CAMERA");
  EXPECT_EQ(spec.find_method("android/content/ContentResolver", "insert")
                ->permission,
            "android.permission.WRITE_EXTERNAL_STORAGE");
  EXPECT_EQ(spec.find_method("android/bluetooth/le/BluetoothLeScanner",
                             "startScan")->permission,
            "android.permission.ACCESS_FINE_LOCATION");
  // insertImage has no direct permission but calls into insert.
  const MethodSpec* insert_image =
      spec.find_method("android/provider/MediaStore$Images$Media",
                       "insertImage");
  ASSERT_NE(insert_image, nullptr);
  EXPECT_TRUE(insert_image->permission.empty());
  ASSERT_FALSE(insert_image->calls.empty());
  EXPECT_EQ(insert_image->calls[0].name, "insert");
}

TEST(FrameworkNamespace, Classification) {
  EXPECT_TRUE(is_framework_class_name("android/app/Activity"));
  EXPECT_TRUE(is_framework_class_name("java/lang/Object"));
  EXPECT_TRUE(is_framework_class_name("android/synth/p3/C42"));
  // The support library ships inside APKs: app code.
  EXPECT_FALSE(is_framework_class_name("android/support/v4/app/ActivityCompat"));
  EXPECT_FALSE(is_framework_class_name("com/example/Main"));
}

// --- image emission -------------------------------------------------------------

TEST(Image, RespectsLifecycles) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile at22 = emit_framework_image(spec, 22);
  const DexFile at23 = emit_framework_image(spec, 23);

  const auto has_method = [](const DexFile& dex, const char* cls,
                             const char* name) {
    const ClassDef* def = dex.find_class(cls);
    if (!def) return false;
    for (const auto& m : def->methods)
      if (dex.string_at(m.name) == name) return true;
    return false;
  };

  EXPECT_FALSE(has_method(at22, "android/content/Context",
                          "getColorStateList"));
  EXPECT_TRUE(has_method(at23, "android/content/Context",
                         "getColorStateList"));
  // AndroidHttpClient: present at 22, gone at 23.
  EXPECT_NE(at22.find_class("android/net/http/AndroidHttpClient"), nullptr);
  EXPECT_EQ(at23.find_class("android/net/http/AndroidHttpClient"), nullptr);
  // NotificationChannel only exists from 26.
  EXPECT_EQ(at23.find_class("android/app/NotificationChannel"), nullptr);
  const DexFile at26 = emit_framework_image(spec, 26);
  EXPECT_NE(at26.find_class("android/app/NotificationChannel"), nullptr);
}

TEST(Image, PermissionEnforcementIsRealBytecode) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile image = emit_framework_image(spec, 23);
  const ClassDef* camera = image.find_class("android/hardware/Camera");
  ASSERT_NE(camera, nullptr);
  bool enforced = false;
  for (const auto& m : camera->methods) {
    if (image.string_at(m.name) != "open" || !m.code) continue;
    bool saw_const = false;
    for (const auto& insn : m.code->insns) {
      if (insn.op == Opcode::kConstString &&
          image.string_at(insn.index) == "android.permission.CAMERA")
        saw_const = true;
      if (insn.op == Opcode::kInvoke &&
          image.method_id_at(insn.index).name == kPermissionEnforcerMethod)
        enforced = saw_const;
    }
  }
  EXPECT_TRUE(enforced);
}

TEST(Image, CallbackDispatchersEmitted) {
  const FrameworkSpec spec = curated_framework_spec();
  const DexFile image = emit_framework_image(spec, 23);
  const ClassDef* view = image.find_class("android/view/View");
  ASSERT_NE(view, nullptr);
  bool dispatches_hotspot = false;
  for (const auto& m : view->methods) {
    if (image.string_at(m.name) != kCallbackDispatcherName || !m.code)
      continue;
    for (const auto& insn : m.code->insns)
      if (insn.op == Opcode::kInvoke &&
          image.method_id_at(insn.index).name == "drawableHotspotChanged")
        dispatches_hotspot = true;
  }
  EXPECT_TRUE(dispatches_hotspot);
}

// Property: every level's image is a valid container and round-trips.
class ImagePerLevel : public ::testing::TestWithParam<int> {};

TEST_P(ImagePerLevel, SerializesAndReparses) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 60;  // keep the sweep fast
  const FrameworkSpec spec = build_framework_spec(cfg);
  const DexFile image = emit_framework_image(spec, GetParam());
  const auto bytes = image.serialize();
  const DexFile back = DexFile::parse(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_GT(back.classes().size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Levels, ImagePerLevel,
                         ::testing::Range(kMinApiLevel, kMaxApiLevel + 1));

TEST(Image, MonotoneGrowthOverall) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 200;
  const FrameworkSpec spec = build_framework_spec(cfg);
  // The framework mostly grows level over level (a few removals allowed).
  const auto count_at = [&](int level) {
    return emit_framework_image(spec, level).classes().size();
  };
  EXPECT_LT(count_at(2), count_at(15));
  EXPECT_LT(count_at(15), count_at(29));
}

// Golden: the standard framework's images, byte for byte. Model-cache
// entries carry serialized images, so an emitter change (e.g. to the
// builder's pool interning order) must show up here, not as a silent
// cold≠warm divergence.
TEST(Image, StandardImagesPinnedByHash) {
  const FrameworkSpec spec = build_framework_spec(FrameworkConfig{});
  std::vector<std::uint8_t> all;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    const auto bytes = emit_framework_image(spec, level).serialize();
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sdmc_checksum(all)));
  EXPECT_STREQ(hex, "26731f53d90581ce");
}

// --- synthetic bulk ---------------------------------------------------------------

TEST(Synthetic, DeterministicForSeed) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 100;
  const DexFile a = emit_framework_image(build_framework_spec(cfg), 25);
  const DexFile b = emit_framework_image(build_framework_spec(cfg), 25);
  EXPECT_EQ(a.serialize(), b.serialize());
  cfg.seed = 999;
  const DexFile c = emit_framework_image(build_framework_spec(cfg), 25);
  EXPECT_NE(a.serialize(), c.serialize());
}

TEST(Synthetic, CallbacksAreVoid) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 150;
  const FrameworkSpec spec = build_framework_spec(cfg);
  for (const auto& cls : spec.classes)
    for (const auto& m : cls.methods)
      if (m.callback) {
        EXPECT_EQ(m.return_type, "V") << cls.name << "." << m.name;
      }
}

TEST(Synthetic, MethodLifecyclesNestInClassLifecycles) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 150;
  const FrameworkSpec spec = build_framework_spec(cfg);
  for (const auto& cls : spec.classes)
    for (const auto& m : cls.methods)
      EXPECT_GE(m.life.introduced, cls.life.introduced)
          << cls.name << "." << m.name;
}

// --- repository -------------------------------------------------------------------

TEST(Repository, CachesImages) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 50;
  const FrameworkRepository repo{cfg};
  const DexFile& a = repo.image(20);
  const DexFile& b = repo.image(20);
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_EQ(FrameworkRepository::clamp_level(1), kMinApiLevel);
  EXPECT_EQ(FrameworkRepository::clamp_level(99), kMaxApiLevel);
  EXPECT_EQ(FrameworkRepository::clamp_level(19), 19);
}

TEST(Repository, ClassIndexCoversImage) {
  FrameworkConfig cfg;
  cfg.bulk_classes = 50;
  const FrameworkRepository repo{cfg};
  const DexFile& image = repo.image(24);
  const auto& index = repo.class_index(24);
  EXPECT_EQ(index.size(), image.classes().size());
  EXPECT_TRUE(index.contains("android/app/Activity"));
}

// --- permissions -------------------------------------------------------------------

TEST(Permissions, CatalogueHas26Dangerous) {
  EXPECT_EQ(dangerous_permissions().size(), 26u);
  EXPECT_TRUE(is_dangerous_permission("android.permission.CAMERA"));
  EXPECT_TRUE(
      is_dangerous_permission("android.permission.WRITE_EXTERNAL_STORAGE"));
  EXPECT_FALSE(is_dangerous_permission("android.permission.INTERNET"));
  EXPECT_FALSE(is_dangerous_permission(""));
}

}  // namespace
}  // namespace saintdroid
